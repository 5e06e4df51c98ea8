package experiments

import (
	"cmp"
	"fmt"
	"io"
	"runtime"
	"slices"

	"uvm/internal/uvm"
)

// Autotune contrasts the feedback control plane (internal/control, wired
// through Config.AutoTune) with hand-picked static settings on the three
// I/O-bound workloads the earlier experiments tuned by sweep: reclaim
// bandwidth (pageout window), object writeback bandwidth (writeback
// window), and the multi-tenant traffic tail (the full pipeline). Each
// comparison runs a static sweep, then one run that starts from a
// deliberately modest configuration and lets the controllers move the
// knobs live. The claim under test is the ROADMAP's: the controllers
// should land at or near the best static point on *both* machine
// profiles without being told which profile they are on.
//
// Simulated-bandwidth comparisons isolate the modelling claim and are
// only scheduling-noisy through where controller epochs land; the
// traffic comparison is wall clock and needs real cores, like every
// wall-clock assertion in this package.

// autotuneWindows is the static sweep the controller has to compete
// with: the narrow, the hand-tuned, and the deep end of the window
// range.
func autotuneWindows() []int { return []int{1, 4, 16} }

// BestSimBW returns the point with the highest simulated bandwidth.
func BestSimBW(statics []Point) Point {
	return slices.MaxFunc(statics, func(a, b Point) int { return cmp.Compare(a.SimBW(), b.SimBW()) })
}

// BestP99 returns the point with the lowest p99.
func BestP99(statics []Point) Point {
	return slices.MinFunc(statics, func(a, b Point) int { return cmp.Compare(a.P99(), b.P99()) })
}

// autotuneSweep runs one workload across the static sweep — at(w) for
// each window in autotuneWindows, named static-w<w> — then once under
// the control plane from the shallow start tuning, named autotune: the
// controller has to find the depth.
func autotuneSweep(at func(w int) uvm.Config, start uvm.Config,
	run func(NamedBooter) (Point, error)) ([]Point, Point, error) {
	statics, err := sweep(autotuneWindows(), func(w int) (Point, error) {
		return run(tuned(fmt.Sprintf("static-w%d", w), at(w)))
	})
	if err != nil {
		return nil, Point{}, err
	}
	start.AutoTune = true
	auto, err := run(tuned("autotune", start))
	return statics, auto, err
}

// AutotuneReclaimBW runs the reclaim-bandwidth workload on prof across
// the static pageout-window sweep of the reclaim pipeline, then under
// AutoTune starting from window 2. Returns the sweep and the autotuned
// point. (SimBW is what the report compares; WritesPerPage and
// DeferredShare are the scheduler-independent quantities to assert on.)
func AutotuneReclaimBW(prof string, accesses int) ([]Point, Point, error) {
	return autotuneSweep(reclaimPipeline, reclaimPipeline(2), func(nb NamedBooter) (Point, error) {
		return reclaimBWRun(prof, nil, nb, accesses)
	})
}

// AutotuneObjWB runs the object-writeback workload (vnode backend,
// clustered) on prof across the static writeback-window sweep, then
// under AutoTune from window 2.
func AutotuneObjWB(prof string, rounds int) ([]Point, Point, error) {
	return autotuneSweep(writebackPipeline, writebackPipeline(2), func(nb NamedBooter) (Point, error) {
		return objWBRun(prof, "vnode", nb, rounds)
	})
}

// AutotuneTraffic runs the traffic workload at one contended worker
// count on prof: the static sweep of the full pipeline with both windows
// at w, then the control plane from a modest start (windows 2, pagein
// cluster 4). The metric is the wall-clock fault-latency p99.
func AutotuneTraffic(prof string, quick bool, workers int) ([]Point, Point, error) {
	cfg := TrafficConfigFor(quick)
	start := fullPipeline(2)
	start.PageinCluster = 4
	return autotuneSweep(fullPipeline, start, func(nb NamedBooter) (Point, error) {
		return trafficRun(prof, nb, cfg, workers)
	})
}

// ReportAutotune renders the controller-vs-static comparison for every
// profile the traffic experiment covers (hdd97 and nvme by default; a
// SetProfile choice wins).
func ReportAutotune(w io.Writer, quick bool) error {
	header(w, "Autotune: feedback controllers vs static sweeps")
	fmt.Fprintf(w, "GOMAXPROCS=%d NumCPU=%d  (controllers start from shallow windows; ratios >= ~1 mean the\n",
		runtime.GOMAXPROCS(0), runtime.NumCPU())
	fmt.Fprintln(w, " control plane found the profile's depth on its own)")
	for _, prof := range TrafficProfiles() {
		fmt.Fprintf(w, "-- profile %s\n", prof)

		statics, auto, err := AutotuneReclaimBW(prof, iters(quick, 700, 1500))
		if err != nil {
			return fmt.Errorf("autotune reclaimbw %s: %w", prof, err)
		}
		for _, s := range statics {
			fmt.Fprintf(w, "reclaimbw %-10s sim %9.0f pg/s\n", s.Name, s.SimBW())
		}
		best := BestSimBW(statics)
		fmt.Fprintf(w, "reclaimbw %-10s sim %9.0f pg/s  (best static %s: ratio %.2f)\n",
			auto.Name, auto.SimBW(), best.Name, auto.SimBW()/best.SimBW())

		statics, auto, err = AutotuneObjWB(prof, iters(quick, 2, 6))
		if err != nil {
			return fmt.Errorf("autotune objwb %s: %w", prof, err)
		}
		for _, s := range statics {
			fmt.Fprintf(w, "objwb     %-10s sim %9.0f pg/s\n", s.Name, s.SimBW())
		}
		best = BestSimBW(statics)
		fmt.Fprintf(w, "objwb     %-10s sim %9.0f pg/s  (best static %s: ratio %.2f)\n",
			auto.Name, auto.SimBW(), best.Name, auto.SimBW()/best.SimBW())

		statics, auto, err = AutotuneTraffic(prof, true, 4)
		if err != nil {
			return fmt.Errorf("autotune %w", err)
		}
		for _, s := range statics {
			fmt.Fprintf(w, "traffic   %-10s p99 %9s\n", s.Name, s.P99())
		}
		best = BestP99(statics)
		fmt.Fprintf(w, "traffic   %-10s p99 %9s  (best static %s: ratio %.2f)\n",
			auto.Name, auto.P99(), best.Name, float64(auto.P99())/float64(best.P99()))
	}
	fmt.Fprintln(w, "(the traffic rows are wall clock: orderings need real cores, like Scaling.)")
	return nil
}

// matrixAutotune is the matrix's autotune cell: the compact
// controller-vs-best-static reclaim-bandwidth comparison on one
// profile, leak-checked like every cell.
func matrixAutotune(prof string, quick bool, w io.Writer) error {
	statics, auto, err := AutotuneReclaimBW(prof, iters(quick, 700, 1500))
	if err != nil {
		return err
	}
	best := BestSimBW(statics)
	fmt.Fprintf(w, "autotune reclaimbw: best static %s sim %9.0f pg/s, autotune sim %9.0f pg/s (ratio %.2f)\n",
		best.Name, best.SimBW(), auto.SimBW(), auto.SimBW()/best.SimBW())
	return nil
}
