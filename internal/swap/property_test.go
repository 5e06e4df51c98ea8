package swap

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"uvm/internal/disk"
	"uvm/internal/sim"
)

// Property tests for the sharded allocator: random Alloc / AllocContig /
// FreeRange / device-kill sequences checked against a model that the
// implementation can never satisfy by accident. The invariants:
//
//  1. no slot is ever handed out twice while allocated (no double-alloc),
//  2. SlotsInUse and the live-slot counter track the model exactly
//     (no leak, no drift),
//  3. a contiguous run stays within the device,
//  4. once the device's death has been observed, AllocContig fails with
//     ErrNoSwap and hands nothing out (swap.go's Dead() check), while
//     frees of the runs still live keep working.
//
// The deterministic variant replays a fixed-seed op stream on one
// goroutine so a failure is a repeatable counterexample; the concurrent
// variant runs the same op mix from 8 workers under -race with a shared
// slot registry. FuzzSwapAllocFree drives the same model from an
// arbitrary byte stream so `go test -fuzz` can search for new
// counterexamples.

// propSwap builds the device the properties run on, big enough to
// shard. Killing it mid-stream forces the dead-disk path.
func propSwap() (s *Swap, stats *sim.Stats, dev *disk.Disk) {
	clock := sim.NewClock()
	costs := sim.DefaultCosts()
	stats = sim.NewStats()
	dev = disk.New(clock, costs, stats, 4096)
	return New(clock, costs, stats, dev), stats, dev
}

// propModel is the reference bookkeeping a single-threaded op stream is
// checked against: which slots are allocated, as ranges and as a set.
type propModel struct {
	t     *testing.T
	s     *Swap
	stats *sim.Stats
	owned map[int64]int // start slot -> run length
	slots map[int64]bool
}

func newPropModel(t *testing.T, s *Swap, stats *sim.Stats) *propModel {
	return &propModel{t: t, s: s, stats: stats,
		owned: make(map[int64]int), slots: make(map[int64]bool)}
}

// alloc runs one AllocContig and folds a success into the model,
// checking the no-double-alloc, containment and dead-device properties.
func (m *propModel) alloc(n int, dead bool) {
	m.t.Helper()
	start, err := m.s.AllocContig(n)
	if dead {
		if !errors.Is(err, ErrNoSwap) {
			m.t.Fatalf("AllocContig(%d) on the dead device = %d, %v; want ErrNoSwap", n, start, err)
		}
		return
	}
	if err != nil {
		return // full — legal
	}
	if start < 0 || start+int64(n) > m.s.Slots() {
		m.t.Fatalf("cluster [%d,%d) escapes the device's %d slots", start, start+int64(n), m.s.Slots())
	}
	for i := int64(0); i < int64(n); i++ {
		if m.slots[start+i] {
			m.t.Fatalf("slot %d double-allocated (cluster [%d,%d))", start+i, start, start+int64(n))
		}
		m.slots[start+i] = true
	}
	m.owned[start] = n
}

// free releases a random owned range, model first.
func (m *propModel) free(pick uint64) {
	if len(m.owned) == 0 {
		return
	}
	// Map iteration order is randomised, but any owned range is a valid
	// pick — the model, not the schedule, carries the property.
	idx := int(pick % uint64(len(m.owned)))
	var start int64
	for st := range m.owned {
		start = st
		if idx == 0 {
			break
		}
		idx--
	}
	n := m.owned[start]
	delete(m.owned, start)
	for i := int64(0); i < int64(n); i++ {
		delete(m.slots, start+i)
	}
	m.s.FreeRange(start, n)
}

// check asserts the accounting invariants against the model.
func (m *propModel) check() {
	m.t.Helper()
	if got, want := m.s.SlotsInUse(), len(m.slots); got != want {
		m.t.Fatalf("SlotsInUse = %d, model says %d", got, want)
	}
	if got, want := m.stats.Get(sim.CtrSwapSlotsLive), int64(len(m.slots)); got != want {
		m.t.Fatalf("live-slot counter = %d, model says %d", got, want)
	}
}

// TestAllocatorPropertyDeterministic replays a fixed-seed op stream —
// single-slot allocs, cluster allocs up to the pageout maximum, frees,
// and one device kill at the midpoint — on one goroutine, checking the
// model invariants after every operation.
func TestAllocatorPropertyDeterministic(t *testing.T) {
	const ops = 4000
	s, stats, dev := propSwap()
	m := newPropModel(t, s, stats)
	rng := sim.NewRNG(42)
	dead := false
	for op := 0; op < ops; op++ {
		if op == ops/2 {
			if len(m.owned) == 0 {
				t.Fatal("fixture: nothing live at the kill, so no free after it is checked")
			}
			dev.Kill()
			dead = true
		}
		switch rng.Intn(4) {
		case 0:
			m.free(rng.Uint64())
		case 1:
			m.alloc(1, dead)
		default:
			m.alloc(1+rng.Intn(64), dead)
		}
		m.check()
	}
	for start, n := range m.owned {
		s.FreeRange(start, n)
	}
	if s.SlotsInUse() != 0 {
		t.Fatalf("slots leaked after final drain: %d", s.SlotsInUse())
	}
	if live := stats.Get(sim.CtrSwapSlotsLive); live != 0 {
		t.Fatalf("live-slot counter drifted: %d", live)
	}
	// An empty dead device still hands nothing out.
	if slot, err := s.AllocContig(64); !errors.Is(err, ErrNoSwap) {
		t.Fatalf("AllocContig on the drained dead device = %d, %v; want ErrNoSwap", slot, err)
	}
}

// TestAllocatorPropertyConcurrent runs the same op mix from 8 workers
// (concurrent reclaim passes and pageins) with a shared registry that
// catches cross-worker double-allocation, while a mid-stream device kill
// exercises the dead-disk path under load. Run with -race.
//
// The dead-device property needs care under concurrency: an allocation
// already inside AllocContig when Kill lands may legitimately succeed.
// The assertion therefore only applies when the kill flag was observed
// set *before* the allocation started.
func TestAllocatorPropertyConcurrent(t *testing.T) {
	const (
		workers = 8
		rounds  = 600
	)
	s, stats, dev := propSwap()

	var (
		regMu    sync.Mutex
		registry = make(map[int64]int) // slot -> owning worker
		killed   atomic.Bool
	)
	claim := func(w int, start int64, n int) {
		regMu.Lock()
		defer regMu.Unlock()
		for i := int64(0); i < int64(n); i++ {
			if prev, dup := registry[start+i]; dup {
				t.Errorf("slot %d handed to worker %d while worker %d holds it", start+i, w, prev)
			}
			registry[start+i] = w
		}
	}
	release := func(start int64, n int) {
		regMu.Lock()
		for i := int64(0); i < int64(n); i++ {
			delete(registry, start+i)
		}
		regMu.Unlock()
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := sim.NewRNG(uint64(w)*0x9e3779b97f4a7c15 + 1)
			type held struct {
				slot int64
				n    int
			}
			var mine []held
			for r := 0; r < rounds; r++ {
				if w == 0 && r == rounds/2 {
					dev.Kill()
					killed.Store(true) // kill first: a worker that sees the flag must find the disk dead
				}
				switch {
				case rng.Intn(3) == 0 && len(mine) > 0:
					i := rng.Intn(len(mine))
					h := mine[i]
					mine[i] = mine[len(mine)-1]
					mine = mine[:len(mine)-1]
					release(h.slot, h.n) // registry first, so a re-alloc never races the delete
					s.FreeRange(h.slot, h.n)
				default:
					n := 1 + rng.Intn(64)
					if rng.Intn(2) == 0 {
						n = 1
					}
					deadBefore := killed.Load()
					start, err := s.AllocContig(n)
					if deadBefore && !errors.Is(err, ErrNoSwap) {
						t.Errorf("worker %d: AllocContig(%d) after observing the kill = %d, %v; want ErrNoSwap", w, n, start, err)
					}
					if err != nil {
						continue
					}
					if start < 0 || start+int64(n) > s.Slots() {
						t.Errorf("cluster [%d,%d) escapes the device's %d slots", start, start+int64(n), s.Slots())
					}
					claim(w, start, n)
					mine = append(mine, held{start, n})
				}
			}
			for _, h := range mine {
				release(h.slot, h.n)
				s.FreeRange(h.slot, h.n)
			}
		}(w)
	}
	wg.Wait()

	if len(registry) != 0 {
		t.Fatalf("registry not empty after drain: %d slots", len(registry))
	}
	if got := s.SlotsInUse(); got != 0 {
		t.Fatalf("slots leaked: %d still in use", got)
	}
	if live := stats.Get(sim.CtrSwapSlotsLive); live != 0 {
		t.Fatalf("live-slot counter drifted: %d", live)
	}
	if slot, err := s.AllocContig(64); !errors.Is(err, ErrNoSwap) {
		t.Fatalf("AllocContig on the drained dead device = %d, %v; want ErrNoSwap", slot, err)
	}
}

// FuzzSwapAllocFree interprets an arbitrary byte stream as an op
// sequence over the allocator — two bits select the op, the rest of the
// byte sizes clusters or picks the range to free, one marker byte kills
// the device — and checks the same model
// invariants. The seed corpus covers each op class and a kill; `go test
// -fuzz=FuzzSwapAllocFree` searches for counterexamples beyond it.
func FuzzSwapAllocFree(f *testing.F) {
	f.Add([]byte{0x01, 0x42, 0x81, 0xC0, 0x00})       // one of each op class
	f.Add([]byte{0x7F, 0x7F, 0xFF, 0x01, 0xFF, 0x40}) // big clusters around a kill
	f.Add([]byte{0x41, 0x41, 0x00, 0x41, 0x00, 0x41}) // alloc/free churn
	f.Fuzz(func(t *testing.T, stream []byte) {
		s, stats, dev := propSwap()
		m := newPropModel(t, s, stats)
		dead := false
		for _, b := range stream {
			switch {
			case b == 0xFF: // kill marker
				dev.Kill()
				dead = true
			case b>>6 == 0: // free: low bits pick the range
				m.free(uint64(b))
			case b>>6 == 1: // single-slot alloc
				m.alloc(1, dead)
			default: // cluster alloc, 1..64 slots from the low bits
				m.alloc(1+int(b&0x3F), dead)
			}
			m.check()
		}
		for start, n := range m.owned {
			s.FreeRange(start, n)
		}
		if s.SlotsInUse() != 0 {
			t.Fatalf("slots leaked after drain: %d", s.SlotsInUse())
		}
		if live := stats.Get(sim.CtrSwapSlotsLive); live != 0 {
			t.Fatalf("live-slot counter drifted: %d", live)
		}
	})
}
