package experiments

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"
	"time"

	"uvm/internal/disk"
	"uvm/internal/param"
	"uvm/internal/sim"
	"uvm/internal/uvm"
	"uvm/internal/vmapi"
)

// ReclaimBW measures sustained pageout bandwidth and fault latency under
// heavy overcommit, contrasting the reclaim I/O pipeline's stages:
//
//   - sync-1w: the PR-2 baseline — one pagedaemon that blocks on every
//     cluster write; reclaim bandwidth is bounded by one synchronous I/O
//     stream.
//   - async-1w: asynchronous cluster pageout — the daemon submits each
//     cluster into the per-device in-flight window and overlaps the next
//     inactive-queue scan with the writes; completions free the pages.
//   - async-4w: async pageout plus four parallel reclaim workers, each
//     scanning a disjoint range of the sharded page queues.
//   - async-4w+pgin: the full pipeline, adding clustered pagein — a
//     swap-backed fault drags adjacent allocated slots in with one I/O.
//
// Two bandwidth figures are reported. Simulated bandwidth (pageouts per
// simulated second) isolates the modelling claim: a synchronous daemon
// charges every cluster's positioning + transfer time to the machine's
// one virtual clock, while overlapped writes charge nothing to the
// scanning thread — so async reclaim sustains strictly more pageout per
// simulated second. Wall bandwidth (pageouts per wall-clock second)
// additionally shows the host-parallelism effect of the worker shards,
// which needs real cores to be visible (like the scaling experiment).

// ReclaimBWPoint is one configuration's measurement.
type ReclaimBWPoint struct {
	Config        string
	Accesses      int
	Pageouts      int64
	AsyncClusters int64
	PageinRides   int64 // extra pages brought in by clustered pagein
	// WriteCmds counts disk write commands, clock-charged and deferred
	// alike; DeferredNs is the disk time of the deferred (overlapped)
	// ones — the ledger async pageout moves its cluster writes to. Both
	// are sums of per-command costs, independent of how the scheduler
	// interleaved the producers on the shared clock.
	WriteCmds    int64
	DeferredCmds int64
	DeferredNs   int64
	Wall         time.Duration
	Sim          time.Duration
	WallBW       float64 // pageouts per wall second
	SimBW        float64 // pageouts per simulated second
	P50, P99     time.Duration
	IOErrors     int // accesses that failed under an injected fault plan
}

const (
	// reclaimBWRAMPages keeps the machine small enough that the sweeps
	// overcommit it several times, so reclaim runs for the whole
	// experiment.
	reclaimBWRAMPages = 1024 // 4 MB
	// reclaimBWRegionPages is each producer's private region (2 MB): four
	// producers demand 8 MB of 4 MB RAM.
	reclaimBWRegionPages = 512
	reclaimBWProducers   = 4
)

// reclaimBWConfig names one tuning of the reclaim pipeline.
type reclaimBWConfig struct {
	Name string
	Tune func(*uvm.Config)
}

// reclaimBWConfigs returns the pipeline stages the experiment contrasts.
func reclaimBWConfigs() []reclaimBWConfig {
	return []reclaimBWConfig{
		{"sync-1w", func(c *uvm.Config) {}},
		{"async-1w", func(c *uvm.Config) {
			c.AsyncPageout = true
			c.PageoutWindow = 4
		}},
		{"async-4w", func(c *uvm.Config) {
			c.AsyncPageout = true
			c.PageoutWindow = 4
			c.ReclaimWorkers = 4
		}},
		{"async-4w+pgin", func(c *uvm.Config) {
			c.AsyncPageout = true
			c.PageoutWindow = 4
			c.ReclaimWorkers = 4
			c.PageinCluster = 8
		}},
	}
}

// ReclaimBWRun measures one configuration: producers cycle write faults
// over private regions that together overcommit RAM, so every allocation
// rides on reclaim; per-access wall latency and the machine's pageout
// counters are collected.
func ReclaimBWRun(cfgName string, tune func(*uvm.Config), accessesPerProducer int) (ReclaimBWPoint, error) {
	pt, _, err := ReclaimBWRunOn(profile, nil, cfgName, tune, accessesPerProducer)
	return pt, err
}

// ReclaimBWRunOn is ReclaimBWRun on a named machine profile, optionally
// with a fault plan installed on the swap disk. With a plan, access
// errors don't abort the run: an injected fault surfacing as a fault
// error is the behaviour under test, so failed accesses are counted in
// IOErrors and the producers keep going. Returns the measurement plus
// the number of Busy pages leaked (swept after Shutdown; always 0
// unless an error path lost a claim — the matrix fails cells on it).
func ReclaimBWRunOn(prof string, swapPlan *disk.FaultPlan, cfgName string,
	tune func(*uvm.Config), accessesPerProducer int) (ReclaimBWPoint, int, error) {
	mach := vmapi.NewMachine(vmapi.MachineConfig{
		RAMPages:      reclaimBWRAMPages,
		SwapPages:     65536,
		FSPages:       1024,
		MaxVnodes:     16,
		Profile:       prof,
		SwapFaultPlan: swapPlan,
	})
	cfg := uvm.DefaultConfig()
	tune(&cfg)
	sys := uvm.BootConfig(mach, cfg)
	defer sys.Shutdown()

	// Set up every producer's process and region before any accesses run:
	// the regions all stay mapped for the whole measurement, so the
	// combined demand overcommits RAM regardless of how the host
	// schedules the producers (a producer that finished and exited early
	// would quietly relieve the pressure).
	type producer struct {
		p  vmapi.Process
		va param.VAddr
	}
	producers := make([]producer, reclaimBWProducers)
	for w := range producers {
		p, err := sys.NewProcess(fmt.Sprintf("bw%d", w))
		if err != nil {
			return ReclaimBWPoint{}, 0, err
		}
		defer p.Exit()
		va, err := p.Mmap(0, reclaimBWRegionPages*param.PageSize, param.ProtRW,
			vmapi.MapAnon|vmapi.MapPrivate, nil, 0)
		if err != nil {
			return ReclaimBWPoint{}, 0, err
		}
		producers[w] = producer{p, va}
	}

	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		all      []time.Duration
		ioErrs   int
		firstErr error
	)
	//uvm:wallclock real elapsed time is the reported host-throughput metric
	wallStart := time.Now()
	simStart := mach.Clock.Now()
	for _, pr := range producers {
		wg.Add(1)
		go func(pr producer) {
			defer wg.Done()
			lat := make([]time.Duration, 0, accessesPerProducer)
			errs := 0
			var verr error
			for i := 0; i < accessesPerProducer && verr == nil; i++ {
				addr := pr.va + param.VAddr(i%reclaimBWRegionPages)*param.PageSize
				//uvm:wallclock host-latency histogram measures real elapsed time
				t0 := time.Now()
				if err := pr.p.Access(addr, true); err != nil {
					if swapPlan == nil {
						verr = err
					} else {
						// Injected faults surface here by design: count
						// and keep going — the cell is probing whether
						// the system stays consistent, not whether the
						// access succeeds.
						errs++
					}
				}
				//uvm:wallclock host-latency histogram measures real elapsed time
				lat = append(lat, time.Since(t0))
			}
			mu.Lock()
			if verr != nil && firstErr == nil {
				firstErr = verr
			}
			ioErrs += errs
			all = append(all, lat...)
			mu.Unlock()
		}(pr)
	}
	wg.Wait()
	//uvm:wallclock real elapsed time is the reported host-throughput metric
	wall := time.Since(wallStart)
	if firstErr != nil {
		return ReclaimBWPoint{}, 0, firstErr
	}
	sys.Shutdown() // drain in-flight pageout before reading counters
	leaked := len(mach.Mem.BusyPages())
	simT := mach.Clock.Now() - simStart

	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	pct := func(q float64) time.Duration {
		if len(all) == 0 {
			return 0
		}
		return all[int(q*float64(len(all)-1))]
	}
	pt := ReclaimBWPoint{
		Config:        cfgName,
		Accesses:      len(all),
		Pageouts:      mach.Stats.Get(sim.CtrPageOuts),
		AsyncClusters: mach.Stats.Get(sim.CtrPdAsyncClusters),
		PageinRides:   mach.Stats.Get(sim.CtrPageinClustered),
		WriteCmds:     mach.Stats.Get(sim.CtrDiskWrites) + mach.Stats.Get(sim.CtrDiskWritesDeferred),
		DeferredCmds:  mach.Stats.Get(sim.CtrDiskWritesDeferred),
		DeferredNs:    mach.Stats.Get(sim.CtrDiskDeferredNs),
		Wall:          wall,
		Sim:           simT,
		P50:           pct(0.50),
		P99:           pct(0.99),
		IOErrors:      ioErrs,
	}
	if s := wall.Seconds(); s > 0 {
		pt.WallBW = float64(pt.Pageouts) / s
	}
	if s := simT.Seconds(); s > 0 {
		pt.SimBW = float64(pt.Pageouts) / s
	}
	return pt, leaked, nil
}

// WritesPerPage is the run's disk write commands per page out — the
// inverse of its mean cluster size.
func (pt ReclaimBWPoint) WritesPerPage() float64 {
	return float64(pt.WriteCmds) / float64(pt.Pageouts)
}

// DeferredShare is the fraction of the run's write commands that were
// overlapped: their disk time went to the deferred ledger instead of the
// machine clock.
func (pt ReclaimBWPoint) DeferredShare() float64 {
	return float64(pt.DeferredCmds) / float64(pt.WriteCmds)
}

// ReclaimBW runs every pipeline configuration.
func ReclaimBW(accessesPerProducer int) ([]ReclaimBWPoint, error) {
	var points []ReclaimBWPoint
	for _, c := range reclaimBWConfigs() {
		pt, err := ReclaimBWRun(c.Name, c.Tune, accessesPerProducer)
		if err != nil {
			return nil, err
		}
		points = append(points, pt)
	}
	return points, nil
}

// ReportReclaimBW renders the bandwidth table.
func ReportReclaimBW(w io.Writer, accessesPerProducer int) error {
	header(w, "ReclaimBW: pageout bandwidth, sync vs async vs parallel reclaim")
	fmt.Fprintf(w, "GOMAXPROCS=%d NumCPU=%d  RAM=%d pages, %d producers x %d-page regions\n",
		runtime.GOMAXPROCS(0), runtime.NumCPU(), reclaimBWRAMPages,
		reclaimBWProducers, reclaimBWRegionPages)
	points, err := ReclaimBW(accessesPerProducer)
	if err != nil {
		return err
	}
	for _, pt := range points {
		fmt.Fprintf(w, "%-14s %7d pageouts  sim %9.0f pg/s  wall %9.0f pg/s  fault p50 %9s p99 %9s  (async clusters %d, pagein rides %d)\n",
			pt.Config, pt.Pageouts, pt.SimBW, pt.WallBW, pt.P50, pt.P99,
			pt.AsyncClusters, pt.PageinRides)
	}
	fmt.Fprintln(w, "(sync-1w charges every cluster write to the scanning thread's clock; the")
	fmt.Fprintln(w, " async configs overlap those writes with the next scan, so their simulated")
	fmt.Fprintln(w, " bandwidth is strictly higher. Worker and wall-clock effects need real cores.)")
	return nil
}
