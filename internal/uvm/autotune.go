package uvm

import (
	"sync"
	"sync/atomic"
	"time"

	"uvm/internal/control"
	"uvm/internal/phys"
	"uvm/internal/sim"
)

// This file wires the internal/control feedback plane into a booted
// System (cfg.AutoTune): five controllers steering the knobs that
// PRs 2–5 left static, plus a syncer-style
// periodic flusher that trickles dirty object pages through the object
// writeback engine so msync storms and reclaim rounds find less backlog.
//
//   - pageout / writeback window (AIMD): deepen the async write windows
//     while per-completion deferred-write latency stays flat; halve on
//     inflation. Applied live via Swap.SetAIOWindow / FS.SetWriteWindow.
//   - pagein cluster (banded): widen while the speculative neighbours a
//     cluster drags in actually get used; shrink when they miss.
//   - lookahead (banded): add read-ahead pages over the advice baseline
//     while the batched pmap entries pay off.
//   - watermarks (banded): raise the pagedaemon's low mark while
//     allocators stall in waitForFree; decay it after sustained calm.
//
// Everything observes lock-free counters and applies through atomics or
// leaf-level setters, so the plane adds no lock-order edges (see the
// Entry contract in internal/control). Ticks come from the fault/touch
// entry point and the pageout/writeback completion paths; epochs are
// simulated time, so an idle machine steps no controllers.
//
// AutoTune runs are intentionally not byte-deterministic: controller
// decisions depend on where goroutine interleaving lands counter values
// at each epoch edge. Everything stays within control's validated
// bounds; the paper experiments keep the flag off.

// Syncer counters ("control.syncer.*", alongside the plane's own
// control.* counters).
const (
	ctrSyncerPasses = "control.syncer.passes"
	ctrSyncerPages  = "control.syncer.pages"
)

// autotuneEpoch is the minimum simulated time between controller steps.
const autotuneEpoch = time.Millisecond

// syncerEvery is the simulated interval between syncer passes (a few
// controller epochs, mirroring the classic 30-second syncer's relation
// to scheduler ticks).
const syncerEvery = 4 * time.Millisecond

type autotuner struct {
	s     *System
	plane *control.Plane
	set   *control.Set

	lastSync atomic.Int64 // sim ns of the last syncer kick
	syncKick chan struct{}
	stopCh   chan struct{}
	syncDone chan struct{}
	stopOnce sync.Once
}

// startAutotune builds the controller set from the booted configuration
// and starts the plane and syncer. Called from BootConfig after the
// pagedaemon is up; a starting configuration outside control's bounds is
// clamped into them (the static value was legal for the mechanisms, but
// the controllers only roam the validated range).
func (s *System) startAutotune() {
	ram := s.mach.Mem.TotalPages()
	clampInt := func(v, lo, hi int) int {
		if v < lo {
			return lo
		}
		if v > hi {
			return hi
		}
		return v
	}
	low := clampInt(s.pd.lowMark(), 1, ram/8)
	pagein := s.pageinCap()
	if pagein == 0 {
		pagein = control.MaxPageinCluster // no cap: start the band above every advice window
	}
	start := control.Tuning{
		PageoutWindow:   clampInt(s.mach.Swap.AIOWindow(), control.MinWindow, control.MaxWindow),
		WritebackWindow: clampInt(s.mach.FS.WriteWindow(), control.MinWindow, control.MaxWindow),
		PageinCluster:   clampInt(pagein, 1, control.MaxPageinCluster),
		LookaheadBoost:  0,
		LowWater:        low,
		HighWater:       2 * low,
	}
	set, err := control.NewStandardSet(start, ram)
	if err != nil {
		// Unreachable after clamping; a machine too small to validate any
		// tuning (ram/8 < 1) simply runs untuned.
		return
	}
	if low != s.pd.lowMark() {
		// The controller's floor is capped tighter than the boot sizing
		// (ram/8 vs lowWater's ram/4); align the live marks with the
		// controller's starting point so the set's Tuning always describes
		// the machine.
		s.pd.setWatermarks(low, 2*low)
	}
	s.pageinClusterA.Store(int32(start.PageinCluster))
	t := &autotuner{
		s:        s,
		set:      set,
		plane:    control.NewPlane(s.mach.Clock.Now, autotuneEpoch, s.mach.Stats),
		syncKick: make(chan struct{}, 1),
		stopCh:   make(chan struct{}),
		syncDone: make(chan struct{}),
	}
	t.register()
	s.tuner = t
	go t.syncer()
}

// register binds the five standard controllers to their samplers and
// appliers.
func (t *autotuner) register() {
	s := t.s
	t.plane.Register(control.Entry{
		Controller: t.set.Pageout,
		Sample:     t.latencySampler(),
		Apply:      func(v int) { s.mach.Swap.SetAIOWindow(v) },
	})
	t.plane.Register(control.Entry{
		Controller: t.set.Writeback,
		Sample:     t.latencySampler(),
		Apply:      func(v int) { s.mach.FS.SetWriteWindow(v) },
	})
	t.plane.Register(control.Entry{
		Controller: t.set.Pagein,
		Sample:     t.pageinSampler(),
		Apply:      func(v int) { s.pageinClusterA.Store(int32(v)) },
	})
	t.plane.Register(control.Entry{
		Controller: t.set.Lookahead,
		Sample:     t.lookaheadSampler(),
		Apply:      func(v int) { s.lookaheadA.Store(int32(v - 1)) },
	})
	t.plane.Register(control.Entry{
		Controller: t.set.Watermark,
		Sample:     t.watermarkSampler(),
		Apply:      func(v int) { s.pd.setWatermarks(v, 2*v) },
	})
}

// latencySampler observes the per-completion device-busy latency of the
// deferred (overlapped) writes both async engines issue. Each caller
// gets its own delta tracker, so the pageout and writeback controllers
// sample the same counters independently. Closure state is guarded by
// the plane lock (samplers only run inside Tick).
func (t *autotuner) latencySampler() func() control.Sample {
	st := t.s.mach.Stats
	var lastNs, lastOps int64
	return func() control.Sample {
		ns, ops := st.Get(sim.CtrDiskDeferredNs), st.Get(sim.CtrDiskWritesDeferred)
		dNs, dOps := ns-lastNs, ops-lastOps
		lastNs, lastOps = ns, ops
		if dOps <= 0 {
			return control.Sample{}
		}
		return control.Sample{Metric: float64(dNs) / float64(dOps), Weight: float64(dOps)}
	}
}

// pageinSampler observes clustered-pagein payoff: the fraction of the
// speculative neighbour slots (cap−1 per cluster I/O) that were actually
// filled. A cap above the advice window can never fill, so the band draws
// it down to where it binds. At a cap of 1 clustering is off and yields no
// evidence of its own, so the sampler probes upward while pagein traffic
// exists at all — the next epochs' real payoff then confirms or reverts.
func (t *autotuner) pageinSampler() func() control.Sample {
	st := t.s.mach.Stats
	var lastCl, lastEx, lastF int64
	return func() control.Sample {
		cl := st.Get(sim.CtrPageinClusters) + st.Get(sim.CtrAobjPageinClusters)
		ex := st.Get(sim.CtrPageinClustered) + st.Get(sim.CtrAobjPageinClustered)
		f := st.Get(sim.CtrFaults)
		dCl, dEx, dF := cl-lastCl, ex-lastEx, f-lastF
		lastCl, lastEx, lastF = cl, ex, f
		w := t.s.pageinCap()
		if w <= 1 {
			// Probe weight is fault traffic, not pageins: the single-page
			// swap-in path doesn't count as a pagein, so a pagein-weighted
			// probe could never reopen a window that closed.
			return control.Sample{Metric: 1, Weight: float64(dF)}
		}
		if dCl <= 0 {
			return control.Sample{}
		}
		return control.Sample{
			Metric: float64(dEx) / (float64(dCl) * float64(w-1)),
			Weight: float64(dCl),
		}
	}
}

// lookaheadSampler observes the batched fault-ahead payoff: average
// translations entered per EnterBatch, normalised by the window the
// batch could have covered (the Normal advice baseline of 4 ahead + 3
// behind, plus the current boost).
func (t *autotuner) lookaheadSampler() func() control.Sample {
	st := t.s.mach.Stats
	var lastB, lastP int64
	return func() control.Sample {
		b, p := st.Get(sim.CtrPVBatches), st.Get(sim.CtrPVBatchPages)
		dB, dP := b-lastB, p-lastP
		lastB, lastP = b, p
		if dB <= 0 {
			return control.Sample{}
		}
		window := float64(7 + t.s.lookaheadBoost())
		return control.Sample{Metric: float64(dP) / float64(dB) / window, Weight: float64(dB)}
	}
}

// watermarkSampler observes allocation-stall pressure: allocators that
// blocked in waitForFree this epoch, plus their wakeup-to-satisfy
// latency normalised by the epoch. Weight is always 1 so the controller
// sees calm epochs too — that is what lets a raised floor decay.
func (t *autotuner) watermarkSampler() func() control.Sample {
	st := t.s.mach.Stats
	var lastBl, lastNs int64
	return func() control.Sample {
		bl, ns := st.Get(sim.CtrPdBlocked), st.Get(sim.CtrPdWaitNs)
		dBl, dNs := bl-lastBl, ns-lastNs
		lastBl, lastNs = bl, ns
		return control.Sample{
			Metric: float64(dBl) + float64(dNs)/float64(autotuneEpoch),
			Weight: 1,
		}
	}
}

// tick advances the plane (epoch-gated, cheap when it isn't time) and
// paces the syncer on the same simulated clock.
func (t *autotuner) tick() {
	t.plane.Tick()
	now := int64(t.s.mach.Clock.Now())
	last := t.lastSync.Load()
	if now-last >= int64(syncerEvery) && t.lastSync.CompareAndSwap(last, now) {
		select {
		case t.syncKick <- struct{}{}:
		default:
		}
	}
}

// stop shuts the syncer down and waits for it. Idempotent; the plane
// itself needs no teardown (it only runs inside tick calls).
func (t *autotuner) stop() {
	t.stopOnce.Do(func() { close(t.stopCh) })
	<-t.syncDone
}

// syncer is the periodic flusher goroutine: each pass trickles a few
// objects' dirty pages through the object writeback engine, so dirty
// data drains continuously instead of piling up for msync or reclaim.
// Paced by tick (simulated time) rather than wall time, so an idle
// machine runs no passes and tests stay fast.
func (t *autotuner) syncer() {
	defer close(t.syncDone)
	for {
		select {
		case <-t.stopCh:
			return
		case <-t.syncKick:
			t.trickleSync()
		}
	}
}

// trickleSyncObjects caps how many objects one syncer pass flushes: a
// trickle, not a sweep — the engine's windows still bound the I/O, this
// bounds how much of the frame table one pass can claim Busy.
const trickleSyncObjects = 4

// trickleSync finds up to trickleSyncObjects vnode-backed objects with
// dirty resident pages and pushes those pages through the writeback
// engine, fire-and-forget. Vnode objects only: aobj pages are anonymous,
// and flushing them here would burn swap slots the pagedaemon is about
// to reassign for clustering anyway. The frame sweep is lock-free and
// racy by design; everything is re-verified under the object lock
// (TryLock — the syncer is a janitor and never contends) before any page
// is claimed.
func (t *autotuner) trickleSync() {
	s := t.s
	var objs []*uobject
	seen := make(map[*uobject]bool)
	s.mach.Mem.ForEachFrame(func(pg *phys.Page) bool {
		if !pg.Dirty.Load() || pg.Busy.Load() {
			return true
		}
		o, ok := pg.Owner().(*uobject)
		if !ok || o.vnode == nil || o.aobjSlots != nil {
			return true
		}
		if !seen[o] {
			seen[o] = true
			objs = append(objs, o)
		}
		return len(objs) < trickleSyncObjects
	})
	pages := 0
	for _, o := range objs {
		if !o.mu.TryLock() {
			continue
		}
		hi := o.vnode.NumPages() - 1
		if fl := s.flushLocked(o, 0, hi, true, false); fl != nil {
			pages += fl.issued
		}
		o.mu.Unlock()
	}
	if pages > 0 {
		s.mach.Stats.Add(ctrSyncerPages, int64(pages))
	}
	s.mach.Stats.Inc(ctrSyncerPasses)
}
