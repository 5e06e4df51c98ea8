package workload

import (
	"fmt"
	"math"

	"uvm/internal/param"
	"uvm/internal/sim"
	"uvm/internal/vmapi"
)

// The traffic workload: the Figure 2 file server scaled into the
// ROADMAP's million-user workload, as one Run over the measured-run
// driver (drive.go). Thousands of simulated tenant processes serve
// requests against one machine — Zipf-distributed file popularity over a
// vnode dataset sized well past RAM (each request is the Figure 2 serve
// path: open, mmap shared, touch, munmap), a configurable anon-dirtying
// mixer so file and anonymous pressure compete for the pagedaemon, and
// continuous fork/exit churn in the mold of examples/forkfarm. Every
// page access is individually timed into the worker's latency shard
// (Client.Access), so the run reports fault tail latency (p50/p99/p999)
// rather than just throughput — the tail is where lock contention and
// reclaim interference actually surface.

// TrafficConfig sizes one traffic run. All counts are positive;
// Validate names the first field that is not.
type TrafficConfig struct {
	// Tenants is the number of simulated tenant processes. Tenants are
	// dealt round-robin to the worker goroutines, so it must be at least
	// the worker count.
	Tenants int
	// DatasetFiles and FilePages shape the served corpus:
	// DatasetFiles files of FilePages pages each. Size the product well
	// past RAM or the whole dataset caches and reclaim never runs.
	// Sizing the machine's vnode table below DatasetFiles adds vnode
	// recycling to the mix — but keep MaxVnodes above bsdvm's object
	// cache limit (100, §4) plus the workers' concurrent opens, or the
	// baseline system legitimately runs out of vnodes: its cached
	// objects pin their vnodes referenced, which is the paper's point.
	DatasetFiles int
	FilePages    int
	// ZipfS is the Zipf popularity exponent over the dataset (file 0 the
	// most popular). 0 is uniform; ~1 is web-like skew.
	ZipfS float64
	// TouchPerOp is how many pages one request touches (clamped to the
	// file / anon region).
	TouchPerOp int
	// AnonPages is each tenant's private anonymous region, kept mapped
	// for the whole run (its resident pages are the anon pressure).
	AnonPages int
	// AnonMixPercent is the percentage of requests that dirty the
	// tenant's anon region instead of serving a file (the mixer that
	// makes file and anon pressure compete).
	AnonMixPercent int
	// ChurnEvery forks a short-lived child off the tenant every that
	// many requests per worker (0 disables churn). The child rewrites
	// ChurnPages of the tenant's anon region — the forkfarm COW storm —
	// and exits; the parent then rewrites them back.
	ChurnEvery int
	ChurnPages int
	// OpsPerWorker is each worker goroutine's request count — the run's
	// duration, in simulated operations.
	OpsPerWorker int
	// Seed feeds the per-worker deterministic RNGs.
	Seed uint64
}

// DefaultTrafficConfig is the standard heavy-traffic shape: a dataset
// twice the hdd97 machine's RAM, thousand-ish tenants, web-like skew,
// a fifth of requests dirtying anon memory, steady churn.
func DefaultTrafficConfig() TrafficConfig {
	return TrafficConfig{
		Tenants:        1024,
		DatasetFiles:   2048,
		FilePages:      8, // 2048 × 8 pages = 64 MB corpus vs 32 MB RAM
		ZipfS:          1.0,
		TouchPerOp:     4,
		AnonPages:      8,
		AnonMixPercent: 20,
		ChurnEvery:     64,
		ChurnPages:     4,
		OpsPerWorker:   1500,
		Seed:           1,
	}
}

// QuickTrafficConfig is the trimmed shape used by -quick runs, CI smoke
// and tests: same proportions, two orders of magnitude less work.
func QuickTrafficConfig() TrafficConfig {
	cfg := DefaultTrafficConfig()
	cfg.Tenants = 96
	cfg.DatasetFiles = 512 // 512 × 8 = 16 MB corpus vs 4 MB quick RAM
	cfg.OpsPerWorker = 600 // enough requests that reclaim actually runs
	return cfg
}

// DatasetPages returns the corpus size in pages.
func (c TrafficConfig) DatasetPages() int { return c.DatasetFiles * c.FilePages }

// Validate reports the first malformed field, naming it.
func (c TrafficConfig) Validate() error {
	switch {
	case c.Tenants <= 0:
		return fmt.Errorf("workload: TrafficConfig.Tenants must be positive (got %d)", c.Tenants)
	case c.DatasetFiles <= 0:
		return fmt.Errorf("workload: TrafficConfig.DatasetFiles must be positive (got %d)", c.DatasetFiles)
	case c.FilePages <= 0:
		return fmt.Errorf("workload: TrafficConfig.FilePages must be positive (got %d)", c.FilePages)
	case c.ZipfS < 0:
		return fmt.Errorf("workload: TrafficConfig.ZipfS must not be negative (got %g)", c.ZipfS)
	case c.TouchPerOp <= 0:
		return fmt.Errorf("workload: TrafficConfig.TouchPerOp must be positive (got %d)", c.TouchPerOp)
	case c.AnonPages <= 0:
		return fmt.Errorf("workload: TrafficConfig.AnonPages must be positive (got %d)", c.AnonPages)
	case c.AnonMixPercent < 0 || c.AnonMixPercent > 100:
		return fmt.Errorf("workload: TrafficConfig.AnonMixPercent must be 0..100 (got %d)", c.AnonMixPercent)
	case c.ChurnEvery < 0:
		return fmt.Errorf("workload: TrafficConfig.ChurnEvery must not be negative (got %d)", c.ChurnEvery)
	case c.ChurnEvery > 0 && c.ChurnPages <= 0:
		return fmt.Errorf("workload: TrafficConfig.ChurnPages must be positive with churn on (got %d)", c.ChurnPages)
	case c.ChurnPages > c.AnonPages:
		return fmt.Errorf("workload: TrafficConfig.ChurnPages %d exceeds AnonPages %d", c.ChurnPages, c.AnonPages)
	case c.OpsPerWorker <= 0:
		return fmt.Errorf("workload: TrafficConfig.OpsPerWorker must be positive (got %d)", c.OpsPerWorker)
	}
	return nil
}

// ReclaimInterference reads — from a live *sim.Stats or a Result's
// Counters — the counters that record a collision with in-flight
// reclaim I/O: sleeps on an object page whose writeback is on
// the wire (uvm.objwb.waits — the fault path's waitObjPageIdle) plus
// allocations that blocked on the pagedaemon's round (uvm.pdaemon.blocked).
// The traffic experiment reports the delta over its run as the
// reclaim-interference column. Both counters are UVM's; bsdvm reclaims
// inline under its big lock, so its interference shows up as latency
// instead of a count.
func ReclaimInterference(st interface{ Get(name string) int64 }) int64 {
	return st.Get(sim.CtrObjWbWaits) + st.Get(sim.CtrPdBlocked)
}

// zipf samples file indices with Zipf popularity via a precomputed
// cumulative weight table and binary search. Shared read-only across
// workers; each worker supplies its own RNG.
type zipf struct {
	cum   []float64
	total float64
}

func newZipf(n int, s float64) *zipf {
	z := &zipf{cum: make([]float64, n)}
	acc := 0.0
	for i := 0; i < n; i++ {
		acc += 1 / math.Pow(float64(i+1), s)
		z.cum[i] = acc
	}
	z.total = acc
	return z
}

// sample returns a file index in [0, n), most popular first.
func (z *zipf) sample(r *sim.RNG) int {
	u := float64(r.Uint64()>>11) / (1 << 53) * z.total
	lo, hi := 0, len(z.cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cum[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// tenant is one simulated tenant process and its private anon region.
type tenant struct {
	proc   vmapi.Process
	anonVA param.VAddr
	churn  int // children forked so far (names)
}

// trafficFileName returns the corpus path of file i.
func trafficFileName(i int) string { return fmt.Sprintf("/traffic/f%05d", i) }

// Traffic is the multi-tenant traffic workload as a measured run (see
// Drive) on a fresh mcfg machine booted by boot: one client per worker.
// Set-up builds the corpus and creates cfg.Tenants processes in order,
// dealt round-robin so every worker drives a spread of tenants rather
// than one contiguous block; each worker then issues cfg.OpsPerWorker
// requests across its tenants, every page access timed.
func Traffic(mcfg vmapi.MachineConfig, boot vmapi.Booter, cfg TrafficConfig, workers int) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	if workers <= 0 || workers > cfg.Tenants {
		return Result{}, fmt.Errorf("workload: traffic needs 1..Tenants workers (got %d of %d)", workers, cfg.Tenants)
	}
	z := newZipf(cfg.DatasetFiles, cfg.ZipfS)
	own := make([][]*tenant, workers)
	return Drive(Run{
		Machine: mcfg,
		Boot:    boot,
		Clients: workers,
		Ops:     cfg.OpsPerWorker,
		Seed:    cfg.Seed,
		Setup: func(c *Client) error {
			if c.ID != 0 { // the corpus and the tenants are the machine's, built once
				return nil
			}
			if err := createCorpus(c.Sys, trafficFileName, cfg.DatasetFiles, cfg.FilePages); err != nil {
				return err
			}
			for i := 0; i < cfg.Tenants; i++ {
				p, err := c.NewProcess(fmt.Sprintf("tenant%04d", i))
				if err != nil {
					return err
				}
				va, err := p.Mmap(0, param.VSize(cfg.AnonPages)*param.PageSize, param.ProtRW,
					vmapi.MapAnon|vmapi.MapPrivate, nil, 0)
				if err != nil {
					return err
				}
				own[i%workers] = append(own[i%workers], &tenant{proc: p, anonVA: va})
			}
			return nil
		},
		Op: func(c *Client, i int) error {
			return trafficOp(c, cfg, own[c.ID][i%len(own[c.ID])], z, i)
		},
	})
}

// trafficOp issues a worker's i-th request against tenant tn.
func trafficOp(c *Client, cfg TrafficConfig, tn *tenant, z *zipf, i int) error {
	switch {
	case cfg.ChurnEvery > 0 && (i+1)%cfg.ChurnEvery == 0:
		// Fork/exit churn, the forkfarm pattern: the child rewrites
		// part of the parent's dirty anon region (COW storm both
		// ways), then exits; the parent faults its copies back.
		tn.churn++
		child, err := tn.proc.Fork(fmt.Sprintf("%s.c%d", tn.proc.Name(), tn.churn))
		if err != nil {
			return err
		}
		err = touch(c, child, tn.anonVA, cfg.ChurnPages, true)
		child.Exit()
		if err != nil {
			return err
		}
		return touch(c, tn.proc, tn.anonVA, cfg.ChurnPages, true)
	case c.RNG.Intn(100) < cfg.AnonMixPercent:
		// Anon mixer: dirty a window of the tenant's private region.
		n := min(cfg.TouchPerOp, cfg.AnonPages)
		start := c.RNG.Intn(cfg.AnonPages - n + 1)
		return touch(c, tn.proc, tn.anonVA+param.VAddr(start)*param.PageSize, n, true)
	default:
		// Serve a request: the Figure 2 path over a Zipf-picked file.
		vn, err := c.Sys.Machine().FS.Open(trafficFileName(z.sample(c.RNG)))
		if err != nil {
			return err
		}
		defer vn.Unref()
		size := param.VSize(cfg.FilePages) * param.PageSize
		va, err := tn.proc.Mmap(0, size, param.ProtRead, vmapi.MapShared, vn, 0)
		if err != nil {
			return err
		}
		n := min(cfg.TouchPerOp, cfg.FilePages)
		start := c.RNG.Intn(cfg.FilePages - n + 1)
		err = touch(c, tn.proc, va+param.VAddr(start)*param.PageSize, n, false)
		if uerr := tn.proc.Munmap(va, size); err == nil {
			err = uerr
		}
		return err
	}
}

// touch accesses one address per page across npages pages, each access
// timed individually (Client.Access) — unlike Process.TouchRange, the
// per-access timing is the point.
func touch(c *Client, p vmapi.Process, va param.VAddr, npages int, write bool) error {
	for i := 0; i < npages; i++ {
		if err := c.Access(p, va+param.VAddr(i)*param.PageSize, write); err != nil {
			return err
		}
	}
	return nil
}
