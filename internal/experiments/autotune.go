package experiments

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"uvm/internal/uvm"
	"uvm/internal/vmapi"
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

// AutotuneSetting is one labeled measurement in a sweep-vs-controller
// comparison: SimBW for the bandwidth workloads, P99 for traffic.
type AutotuneSetting struct {
	Label string
	SimBW float64
	P99   time.Duration
	// Reclaim workload only: disk write commands per page out and the
	// share of them that were overlapped (see ReclaimBWPoint). Unlike
	// SimBW these do not depend on how the scheduler interleaved the
	// producers on the shared clock.
	WritesPerPage, DeferredShare float64
}

// autotuneWindows is the static sweep the controller has to compete
// with: the narrow, the hand-tuned, and the deep end of the window
// range.
func autotuneWindows() []int { return []int{1, 4, 16} }

// BestSimBW returns the highest simulated bandwidth in the sweep.
func BestSimBW(statics []AutotuneSetting) AutotuneSetting {
	best := statics[0]
	for _, s := range statics[1:] {
		if s.SimBW > best.SimBW {
			best = s
		}
	}
	return best
}

// BestP99 returns the lowest p99 in the sweep.
func BestP99(statics []AutotuneSetting) AutotuneSetting {
	best := statics[0]
	for _, s := range statics[1:] {
		if s.P99 < best.P99 {
			best = s
		}
	}
	return best
}

// AutotuneReclaimBW runs the reclaim-bandwidth workload on prof across
// the static pageout-window sweep, then under AutoTune starting from a
// shallow window. Returns the sweep, the autotuned point, and the total
// Busy pages leaked across all runs (must be 0).
func AutotuneReclaimBW(prof string, accesses int) ([]AutotuneSetting, AutotuneSetting, int, error) {
	leaked := 0
	base := func(window int) func(*uvm.Config) {
		return func(c *uvm.Config) {
			c.AsyncPageout = true
			c.PageoutWindow = window
			c.ReclaimWorkers = 4
			c.PageinCluster = 8
		}
	}
	var statics []AutotuneSetting
	for _, w := range autotuneWindows() {
		pt, l, err := ReclaimBWRunOn(prof, nil, fmt.Sprintf("static-w%d", w), base(w), accesses)
		leaked += l
		if err != nil {
			return nil, AutotuneSetting{}, leaked, err
		}
		statics = append(statics, AutotuneSetting{pt.Config, pt.SimBW, pt.P99, pt.WritesPerPage(), pt.DeferredShare()})
	}
	tune := func(c *uvm.Config) {
		base(2)(c) // modest start: the controller has to find the depth
		c.AutoTune = true
	}
	pt, l, err := ReclaimBWRunOn(prof, nil, "autotune", tune, accesses)
	leaked += l
	if err != nil {
		return nil, AutotuneSetting{}, leaked, err
	}
	return statics, AutotuneSetting{pt.Config, pt.SimBW, pt.P99, pt.WritesPerPage(), pt.DeferredShare()}, leaked, nil
}

// AutotuneObjWB runs the object-writeback workload (vnode backend,
// clustered) on prof across the static writeback-window sweep, then
// under AutoTune from a shallow window.
func AutotuneObjWB(prof string, rounds int) ([]AutotuneSetting, AutotuneSetting, int, error) {
	leaked := 0
	base := func(window int) func(*uvm.Config) {
		return func(c *uvm.Config) {
			c.AsyncWriteback = true
			c.WritebackWindow = window
			c.WritebackCluster = 16
		}
	}
	var statics []AutotuneSetting
	for _, w := range autotuneWindows() {
		pt, l, err := ObjWBRunOn(prof, fmt.Sprintf("static-w%d", w), "vnode", base(w), rounds)
		leaked += l
		if err != nil {
			return nil, AutotuneSetting{}, leaked, err
		}
		statics = append(statics, AutotuneSetting{Label: pt.Config, SimBW: pt.SimBW})
	}
	tune := func(c *uvm.Config) {
		base(2)(c)
		c.AutoTune = true
	}
	pt, l, err := ObjWBRunOn(prof, "autotune", "vnode", tune, rounds)
	leaked += l
	if err != nil {
		return nil, AutotuneSetting{}, leaked, err
	}
	return statics, AutotuneSetting{Label: pt.Config, SimBW: pt.SimBW}, leaked, nil
}

// trafficWindowBoot is trafficUVMBoot with both async windows set to
// window — the axis the traffic sweep varies.
func trafficWindowBoot(window int) func(*vmapi.Machine) vmapi.System {
	return func(m *vmapi.Machine) vmapi.System {
		cfg := uvm.DefaultConfig()
		cfg.AsyncPageout = true
		cfg.PageoutWindow = window
		cfg.ReclaimWorkers = 4
		cfg.PageinCluster = 8
		cfg.AsyncWriteback = true
		cfg.WritebackWindow = window
		cfg.WritebackCluster = 16
		return uvm.BootConfig(m, cfg)
	}
}

// TrafficAutotuneBoot boots the traffic pipeline from a modest static
// start with the control plane on — the autotuned contestant in the
// traffic comparison.
func TrafficAutotuneBoot(m *vmapi.Machine) vmapi.System {
	cfg := uvm.DefaultConfig()
	cfg.AsyncPageout = true
	cfg.PageoutWindow = 2
	cfg.ReclaimWorkers = 4
	cfg.PageinCluster = 4
	cfg.AsyncWriteback = true
	cfg.WritebackWindow = 2
	cfg.WritebackCluster = 16
	cfg.AutoTune = true
	return uvm.BootConfig(m, cfg)
}

// AutotuneTraffic runs the traffic workload at one contended worker
// count on prof: the static window sweep, then the autotuned boot. The
// metric is the wall-clock fault-latency p99.
func AutotuneTraffic(prof string, quick bool, workers int) ([]AutotuneSetting, AutotuneSetting, int, error) {
	cfg := TrafficConfigFor(quick)
	leaked := 0
	var statics []AutotuneSetting
	for _, w := range autotuneWindows() {
		nb := NamedBooter{fmt.Sprintf("static-w%d", w), trafficWindowBoot(w)}
		pt, l, err := TrafficRunOn(prof, nb, cfg, workers)
		leaked += l
		if err != nil {
			return nil, AutotuneSetting{}, leaked, err
		}
		statics = append(statics, AutotuneSetting{Label: nb.Name, P99: pt.P99})
	}
	pt, l, err := TrafficRunOn(prof, NamedBooter{"autotune", TrafficAutotuneBoot}, cfg, workers)
	leaked += l
	if err != nil {
		return nil, AutotuneSetting{}, leaked, err
	}
	return statics, AutotuneSetting{Label: "autotune", P99: pt.P99}, leaked, nil
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

		statics, auto, leaked, err := AutotuneReclaimBW(prof, iters(quick, 700, 1500))
		if err != nil {
			return err
		}
		if leaked > 0 {
			return fmt.Errorf("autotune reclaimbw %s: %d Busy pages leaked", prof, leaked)
		}
		for _, s := range statics {
			fmt.Fprintf(w, "reclaimbw %-10s sim %9.0f pg/s\n", s.Label, s.SimBW)
		}
		best := BestSimBW(statics)
		fmt.Fprintf(w, "reclaimbw %-10s sim %9.0f pg/s  (best static %s: ratio %.2f)\n",
			auto.Label, auto.SimBW, best.Label, auto.SimBW/best.SimBW)

		statics, auto, leaked, err = AutotuneObjWB(prof, iters(quick, 2, 6))
		if err != nil {
			return err
		}
		if leaked > 0 {
			return fmt.Errorf("autotune objwb %s: %d Busy pages leaked", prof, leaked)
		}
		for _, s := range statics {
			fmt.Fprintf(w, "objwb     %-10s sim %9.0f pg/s\n", s.Label, s.SimBW)
		}
		best = BestSimBW(statics)
		fmt.Fprintf(w, "objwb     %-10s sim %9.0f pg/s  (best static %s: ratio %.2f)\n",
			auto.Label, auto.SimBW, best.Label, auto.SimBW/best.SimBW)

		statics, auto, leaked, err = AutotuneTraffic(prof, true, 4)
		if err != nil {
			return err
		}
		if leaked > 0 {
			return fmt.Errorf("autotune traffic %s: %d Busy pages leaked", prof, leaked)
		}
		for _, s := range statics {
			fmt.Fprintf(w, "traffic   %-10s p99 %9s\n", s.Label, s.P99)
		}
		bp := BestP99(statics)
		fmt.Fprintf(w, "traffic   %-10s p99 %9s  (best static %s: ratio %.2f)\n",
			auto.Label, auto.P99, bp.Label, float64(auto.P99)/float64(bp.P99))
	}
	fmt.Fprintln(w, "(the traffic rows are wall clock: orderings need real cores, like Scaling.)")
	return nil
}

// matrixAutotune is the matrix's autotune cell: the compact
// controller-vs-best-static reclaim-bandwidth comparison on one
// profile, leak-checked like every cell.
func matrixAutotune(prof string, quick bool, w io.Writer) (int, error) {
	statics, auto, leaked, err := AutotuneReclaimBW(prof, iters(quick, 700, 1500))
	if err != nil {
		return leaked, err
	}
	best := BestSimBW(statics)
	fmt.Fprintf(w, "autotune reclaimbw: best static %s sim %9.0f pg/s, autotune sim %9.0f pg/s (ratio %.2f)\n",
		best.Label, best.SimBW, auto.SimBW, auto.SimBW/best.SimBW)
	return leaked, nil
}
