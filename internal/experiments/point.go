package experiments

import (
	"time"

	"uvm/internal/sim"
	"uvm/internal/vmapi"
	"uvm/internal/workload"
)

// Point is one measured run of a beyond-the-paper experiment: what ran,
// and everything workload.Drive reported for it. Ops, Errors, Wall, Sim,
// Hist and Stats are the embedded Result's; the methods are the
// quantities the experiments derive from them. A column only one report
// prints is read off Stats where it is printed.
type Point struct {
	Name    string // the system or tuning measured: "bsdvm", "uvm-daemon", "async-4w+pgin", "static-w4", ...
	Variant string // what else the experiment varied: objwb's backend, traffic's profile, scaling's allocator layout
	Clients int    // goroutines / producers / workers
	workload.Result
}

// NamedBooter pairs a booter with its report name.
type NamedBooter struct {
	Name string
	Boot vmapi.Booter
}

// measure drives run and labels the result.
func measure(name, variant string, run workload.Run) (Point, error) {
	res, err := workload.Drive(run)
	return Point{name, variant, run.Clients, res}, err
}

// sweep measures one point per x, in order, stopping at the first error.
func sweep[X any](xs []X, run func(X) (Point, error)) ([]Point, error) {
	points := make([]Point, 0, len(xs))
	for _, x := range xs {
		pt, err := run(x)
		if err != nil {
			return nil, err
		}
		points = append(points, pt)
	}
	return points, nil
}

// P50, P99 and P999 are wall-clock latency quantiles over every timed
// access of the run, and Max the exact largest. A quantile is its
// bucket's upper bound (≤ 1/16 high), so it is capped at Max.
func (p Point) P50() time.Duration { return min(p.Hist.P50(), p.Hist.Max()) }

// P99 is the 99th percentile (see P50).
func (p Point) P99() time.Duration { return min(p.Hist.P99(), p.Hist.Max()) }

// P999 is the 99.9th percentile (see P50).
func (p Point) P999() time.Duration { return min(p.Hist.P999(), p.Hist.Max()) }

// Max is the largest timed access, exactly.
func (p Point) Max() time.Duration { return p.Hist.Max() }

// Pageouts is the pages written to backing store during the timed phase.
func (p Point) Pageouts() int64 { return p.Stats.Get(sim.CtrPageOuts) }

// SimBW is pageouts per simulated second of the timed phase; WallBW per
// wall-clock second; PerSecond is requests per wall-clock second.
func (p Point) SimBW() float64 { return perSecond(p.Pageouts(), p.Sim) }

// WallBW is pageouts per wall-clock second (see SimBW).
func (p Point) WallBW() float64 { return perSecond(p.Pageouts(), p.Wall) }

// PerSecond is completed requests per wall-clock second (see SimBW).
func (p Point) PerSecond() float64 { return perSecond(p.Ops, p.Wall) }

// WriteCmds counts disk write commands, clock-charged and deferred
// alike. Like DiskBusy it is a sum of per-command costs, independent of
// how the scheduler interleaved the clients on the shared clock.
func (p Point) WriteCmds() int64 {
	return p.Stats.Get(sim.CtrDiskWrites) + p.Stats.Get(sim.CtrDiskWritesDeferred)
}

// DiskBusy is the device time of the run's overlapped (deferred) writes —
// the ledger asynchronous pageout and writeback charge instead of the
// machine clock.
func (p Point) DiskBusy() time.Duration {
	return time.Duration(p.Stats.Get(sim.CtrDiskDeferredNs))
}

// WritesPerPage is the run's disk write commands per page out — the
// inverse of its mean cluster size (0 for a run that paged nothing out).
func (p Point) WritesPerPage() float64 { return ratio(p.WriteCmds(), p.Pageouts()) }

// DeferredShare is the fraction of the run's write commands that were
// overlapped: their disk time went to the deferred ledger instead of the
// machine clock (0 for a run that wrote nothing).
func (p Point) DeferredShare() float64 {
	return ratio(p.Stats.Get(sim.CtrDiskWritesDeferred), p.WriteCmds())
}

// PVContentionRatio is the contended share of pv bucket lock
// acquisitions on the pmap reverse map (0 when the run took none). With
// the sharded pv table it stays near zero as goroutines are added; a
// single-mutex table (pmap.MMU.SetPVShards(1)) is where it shows.
func (p Point) PVContentionRatio() float64 {
	return ratio(p.Stats.Get(sim.CtrPVContended), p.Stats.Get(sim.CtrPVAcquires))
}

// AllocContentionRatio is the contended share of allocation-path lock
// acquisitions — magazine or queue shard (0 when the run took none).
// With per-CPU caches each goroutine mostly takes only its own
// magazine's lock; with the single global pool every fault contends for
// the same queue-shard locks.
func (p Point) AllocContentionRatio() float64 {
	return ratio(p.Stats.Get(sim.CtrAllocContended), p.Stats.Get(sim.CtrAllocAcquires))
}

// ratio returns num/den, and 0 — not NaN or Inf — on a zero base: a run
// that did none of the counted work has no ratio to report, and every
// comparison against NaN is false, so an assertion like a > 1.25*b would
// pass vacuously.
func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// perSecond returns n per second of d (0 when no time passed).
func perSecond(n int64, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(n) / d.Seconds()
}
