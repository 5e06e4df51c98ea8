package experiments

import (
	"fmt"
	"io"
	"runtime"

	"uvm/internal/bsdvm"
	"uvm/internal/sim"
	"uvm/internal/vmapi"
	"uvm/internal/workload"
)

// Traffic is the million-user workload experiment (ROADMAP: "a
// million-user workload"): the multi-tenant Zipf traffic driver from
// internal/workload run against both VM systems, sweeping worker
// goroutine counts like Scaling, across machine profiles. The metric is
// the fault latency histogram — p50/p99/p999/max of every timed page
// access, wall clock — plus the reclaim-interference column: how many
// faults or allocations collided with reclaim I/O in flight. bsdvm
// serialises everything on the big lock, so at multi-worker counts its
// tail stretches; uvm takes the same pressure through per-object locks
// and the async pipelines, so its p99 stays at or below bsdvm's (the
// acceptance assertion in traffic_test.go). Like every wall-clock
// experiment, the numbers move with host load; the orderings are the
// reproducible part.

// TrafficWorkers returns the goroutine counts the experiment sweeps.
func TrafficWorkers(quick bool) []int {
	if quick {
		return []int{1, 4}
	}
	return []int{1, 4, 8}
}

// TrafficProfiles returns the machine profiles the experiment covers: a
// SetProfile choice wins; otherwise the 1997 testbed and the modern
// nvme point (the two ends the ROADMAP cares about).
func TrafficProfiles() []string {
	if profile != "" {
		return []string{profile}
	}
	return []string{"hdd97", "nvme"}
}

// TrafficConfigFor returns the run shape: the default heavy
// configuration, or its trimmed quick variant under `go test`/-quick.
func TrafficConfigFor(quick bool) workload.TrafficConfig {
	if quick {
		return workload.QuickTrafficConfig()
	}
	return workload.DefaultTrafficConfig()
}

// trafficMachineConfig sizes the machine so the corpus is four times
// RAM (the driver's pressure invariant) regardless of profile: the
// profile chooses the cost table, the workload chooses the sizes. The
// vnode table sits below the dataset (vnode recycling runs) but above
// bsdvm's ~100 pinned cache objects plus the workers' concurrent opens.
func trafficMachineConfig(prof string, cfg workload.TrafficConfig) vmapi.MachineConfig {
	ram := max(cfg.DatasetPages()/4, 256)
	vnodes := max(cfg.DatasetFiles/4, 128)
	if vnodes > cfg.DatasetFiles {
		vnodes = cfg.DatasetFiles + 128
	}
	return vmapi.MachineConfig{
		RAMPages:  ram,
		SwapPages: int64(4*ram + cfg.Tenants*cfg.AnonPages),
		FSPages:   int64(cfg.DatasetPages() + 2048),
		MaxVnodes: vnodes,
		Profile:   prof,
	}
}

// TrafficBooters returns the two contestants in report order: bsdvm, and
// uvm with the full I/O pipeline — async clustered pageout, parallel
// reclaim workers, clustered pagein, async clustered object writeback —
// the configuration the interference column instruments.
func TrafficBooters() []NamedBooter {
	return []NamedBooter{{"bsdvm", bsdvm.Boot}, tuned("uvm", fullPipeline(4))}
}

// trafficRun runs one traffic cell: the workload on a fresh prof machine
// booted by nb, with the given worker count.
func trafficRun(prof string, nb NamedBooter, cfg workload.TrafficConfig, workers int) (Point, error) {
	res, err := workload.Traffic(trafficMachineConfig(prof, cfg), nb.Boot, cfg, workers)
	if err != nil {
		err = fmt.Errorf("traffic %s/%s/%dw: %w", prof, nb.Name, workers, err)
	}
	return Point{nb.Name, prof, workers, res}, err
}

// Traffic sweeps both systems over the worker counts on one profile.
func Traffic(prof string, cfg workload.TrafficConfig, workers []int) ([]Point, error) {
	var points []Point
	for _, nb := range TrafficBooters() {
		pts, err := sweep(workers, func(n int) (Point, error) { return trafficRun(prof, nb, cfg, n) })
		if err != nil {
			return nil, err
		}
		points = append(points, pts...)
	}
	return points, nil
}

// TrafficOverrides carries the uvmbench -traffic knobs; zero fields
// keep the configuration's value.
type TrafficOverrides struct {
	Tenants      int     // -tenants: simulated tenant processes
	DatasetPages int     // -dataset-pages: corpus size in pages (file count scales, file size fixed)
	ZipfS        float64 // -zipf: popularity exponent (negative means unset)
	ChurnEvery   int     // -churn: fork/exit churn period in requests
	OpsPerWorker int     // -ops: run duration in requests per worker
}

// Apply folds the set overrides into cfg.
func (o TrafficOverrides) Apply(cfg *workload.TrafficConfig) {
	if o.Tenants > 0 {
		cfg.Tenants = o.Tenants
	}
	if o.DatasetPages > 0 {
		cfg.DatasetFiles = max(o.DatasetPages/cfg.FilePages, 1)
	}
	if o.ZipfS >= 0 {
		cfg.ZipfS = o.ZipfS
	}
	if o.ChurnEvery > 0 {
		cfg.ChurnEvery = o.ChurnEvery
	}
	if o.OpsPerWorker > 0 {
		cfg.OpsPerWorker = o.OpsPerWorker
	}
}

// ReportTraffic renders the traffic table: for each profile, both
// systems across the worker sweep, fault-latency quantiles and the
// reclaim-interference column side by side.
func ReportTraffic(w io.Writer, quick bool, over TrafficOverrides) error {
	header(w, "Traffic: multi-tenant Zipf workload, fault tail latency (wall clock)")
	cfg := TrafficConfigFor(quick)
	over.Apply(&cfg)
	if err := cfg.Validate(); err != nil {
		return err
	}
	fmt.Fprintf(w, "GOMAXPROCS=%d NumCPU=%d  tenants=%d dataset=%d pages (%d files x %d) zipf=%.2f anon-mix=%d%% churn=1/%d ops/worker=%d\n",
		runtime.GOMAXPROCS(0), runtime.NumCPU(), cfg.Tenants, cfg.DatasetPages(),
		cfg.DatasetFiles, cfg.FilePages, cfg.ZipfS, cfg.AnonMixPercent,
		cfg.ChurnEvery, cfg.OpsPerWorker)
	for _, prof := range TrafficProfiles() {
		mcfg := trafficMachineConfig(prof, cfg)
		fmt.Fprintf(w, "-- profile %s: RAM %d pages, corpus %d pages, %d vnodes\n",
			prof, mcfg.RAMPages, cfg.DatasetPages(), mcfg.MaxVnodes)
		points, err := Traffic(prof, cfg, TrafficWorkers(quick))
		if err != nil {
			return err
		}
		for _, pt := range points {
			fmt.Fprintf(w, "%-6s %2d workers: %7d ops %8d faults  p50 %9s p99 %9s p999 %9s max %9s  reclaim-interference %d\n",
				pt.Name, pt.Clients, pt.Ops, pt.Stats.Get(sim.CtrFaults),
				pt.P50(), pt.P99(), pt.P999(), pt.Max(), workload.ReclaimInterference(pt.Stats))
		}
	}
	fmt.Fprintln(w, "(bsdvm's column is 0 by construction: its reclaim interference is served out")
	fmt.Fprintln(w, " inside the big lock and therefore shows up in its latency quantiles instead.)")
	return nil
}
