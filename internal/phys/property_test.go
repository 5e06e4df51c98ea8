package phys

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"uvm/internal/sim"
)

// Model-checked property tests for the per-CPU free-page caches: random
// Alloc/Free/activate/deactivate/reap sequences across k simulated CPUs
// are checked, after every operation, against a reference model the
// implementation cannot satisfy by accident. The invariants:
//
//  1. no frame is ever handed out twice while allocated (no
//     double-alloc), and allocation only fails when the model says the
//     machine is truly out of frames;
//  2. the lock-free free counter is exact at every step: FreePages ==
//     total - live, wherever the free frames sit;
//  3. the global pool's free lists and the magazines always PARTITION
//     the free set — every non-live frame appears in exactly one of
//     them, exactly once, and no live frame appears in either.
//
// The deterministic variant replays a fixed-seed op stream on one
// goroutine so a failure is a repeatable counterexample; the concurrent
// variant runs allocator/reaper workers under -race with a shared frame
// registry. FuzzAllocFree drives the same model from an arbitrary byte
// stream so `go test -fuzz` can search for new counterexamples, and
// TestAllocPropertyCatchesDoubleFree mutation-checks the checker itself
// against a seeded double-free.

// checkAllocInvariants verifies invariants 2 and 3 on a quiescent Mem
// against the set of live (allocated) frames. It returns an error
// instead of failing the test so the mutation test can assert that a
// seeded bug is actually detected.
func checkAllocInvariants(m *Mem, live map[*Page]bool) error {
	wantFree := m.total - len(live)
	if got := m.FreePages(); got != wantFree {
		return fmt.Errorf("free counter drift: FreePages=%d, model wants %d (total %d - live %d)",
			got, wantFree, m.total, len(live))
	}

	// Collect every frame reachable from a free structure, counting
	// multiplicity: shard free lists first, then the magazines.
	seen := make(map[*Page]int)
	poolN := 0
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.Lock()
		for p := sh.free.head; p != nil; p = p.next {
			seen[p]++
			poolN++
			if p.queue != QueueFree {
				sh.mu.Unlock()
				return fmt.Errorf("frame %v on shard %d free list with queue=%d, want QueueFree", p.PA, i, p.queue)
			}
		}
		sh.mu.Unlock()
	}
	cachedN := 0
	for ci, c := range m.caches {
		c.mu.Lock()
		for _, p := range c.pages {
			seen[p]++
			cachedN++
			if p.queue != QueueNone {
				c.mu.Unlock()
				return fmt.Errorf("frame %v in magazine %d with queue=%d, want QueueNone", p.PA, ci, p.queue)
			}
		}
		c.mu.Unlock()
	}

	if poolN+cachedN != wantFree {
		return fmt.Errorf("free set size: pool %d + magazines %d = %d, model wants %d",
			poolN, cachedN, poolN+cachedN, wantFree)
	}
	for p, n := range seen {
		if n > 1 {
			return fmt.Errorf("frame %v appears %d times in the free structures (double-free)", p.PA, n)
		}
		if live[p] {
			return fmt.Errorf("frame %v is both live and free", p.PA)
		}
	}
	// Every non-live frame must have been seen exactly once.
	for i := range m.frames {
		p := &m.frames[i]
		if !live[p] && seen[p] == 0 {
			return fmt.Errorf("frame %v is neither live nor in any free structure (leaked)", p.PA)
		}
	}
	return nil
}

// propMem boots a small machine with k magazines. Sized so the op
// streams exercise refill, drain, steal and exhaustion, not just the
// warm fast path.
func propMem(k, batch, npages int) *Mem {
	m := NewMem(sim.NewClock(), sim.DefaultCosts(), sim.NewStats(), npages)
	m.SetAllocCaches(k, batch)
	return m
}

// propStep applies one modelled operation chosen by op/arg to m,
// maintaining the live set and an ordered slice for deterministic victim
// selection. It reports invariant-1 violations via t.
func propStep(t testing.TB, m *Mem, op, arg int, live map[*Page]bool, order *[]*Page) {
	t.Helper()
	k := m.allocCaches()
	switch op {
	case 0, 1, 2: // alloc on CPU arg (weighted: allocation dominates)
		pg, err := m.AllocCPU(arg%k, nil, 0, false)
		if err != nil {
			if len(live) != m.total {
				t.Fatalf("AllocCPU failed with %d of %d frames live: %v", len(live), m.total, err)
			}
			return
		}
		if live[pg] {
			t.Fatalf("frame %v double-allocated", pg.PA)
		}
		live[pg] = true
		*order = append(*order, pg)
	case 3, 4: // free a victim on CPU arg
		if len(*order) == 0 {
			return
		}
		i := arg % len(*order)
		pg := (*order)[i]
		(*order)[i] = (*order)[len(*order)-1]
		*order = (*order)[:len(*order)-1]
		delete(live, pg)
		m.FreeCPU(arg%k, pg)
	case 5: // queue traffic on a live page, so frees detach from queues
		if len(*order) == 0 {
			return
		}
		pg := (*order)[arg%len(*order)]
		if arg%2 == 0 {
			m.Activate(pg)
		} else {
			m.Deactivate(pg)
		}
	case 6: // reap every magazine back into the pool
		m.ReapCaches()
	}
}

// TestAllocPropertyDeterministic replays a fixed-seed op stream across 4
// simulated CPUs, checking the full invariant set after every step.
func TestAllocPropertyDeterministic(t *testing.T) {
	const (
		cpus   = 4
		batch  = 8
		npages = 96 // < cpus*2*batch+pool, so exhaustion and steal happen
		ops    = 6000
	)
	m := propMem(cpus, batch, npages)
	rng := sim.NewRNG(0xa110c)
	live := make(map[*Page]bool)
	var order []*Page
	for i := 0; i < ops; i++ {
		propStep(t, m, rng.Intn(7), rng.Intn(1<<30), live, &order)
		if err := checkAllocInvariants(m, live); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	// Drain to empty and re-check: everything must come home.
	for _, pg := range order {
		m.FreeCPU(0, pg)
	}
	if err := checkAllocInvariants(m, map[*Page]bool{}); err != nil {
		t.Fatalf("after final drain: %v", err)
	}
	if got := m.FreePages(); got != npages {
		t.Fatalf("FreePages=%d after freeing everything, want %d", got, npages)
	}
	st := m.stats
	if st.Get(sim.CtrAllocRefills) == 0 || st.Get(sim.CtrAllocDrains) == 0 || st.Get(sim.CtrAllocReaps) == 0 {
		t.Errorf("op stream did not exercise the cache machinery: refills=%d drains=%d reaps=%d",
			st.Get(sim.CtrAllocRefills), st.Get(sim.CtrAllocDrains), st.Get(sim.CtrAllocReaps))
	}
	if st.Get(sim.CtrAllocHits) == 0 {
		t.Errorf("no magazine hits recorded over %d ops", ops)
	}
}

// TestAllocPropertyConcurrent runs the same op mix from 8 racing workers
// (each pinned to its own CPU slot, as real faulting goroutines hash to
// magazines) plus a reaper, under a shared registry that catches any
// frame handed to two owners at once. Exact counter equality is only
// checkable at quiescent points; the registry and the race detector
// carry the load mid-flight.
func TestAllocPropertyConcurrent(t *testing.T) {
	const (
		workers = 8
		batch   = 8
		npages  = 160 // keeps the pool under pressure: steal + ErrNoMemory paths run
		ops     = 4000
	)
	m := propMem(workers, batch, npages)
	var owner sync.Map // *Page -> worker id
	var failures atomic.Int32
	stop := make(chan struct{})
	var reaps sync.WaitGroup
	reaps.Add(1)
	go func() {
		defer reaps.Done()
		for {
			select {
			case <-stop:
				return
			default:
				m.ReapCaches()
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := sim.NewRNG(uint64(0xbeef + id))
			var mine []*Page
			for i := 0; i < ops; i++ {
				if rng.Intn(3) != 0 || len(mine) == 0 {
					pg, err := m.AllocCPU(id, nil, 0, false)
					if err != nil {
						continue // pool genuinely under pressure
					}
					if prev, loaded := owner.LoadOrStore(pg, id); loaded {
						t.Errorf("frame %v allocated to worker %d while owned by %v", pg.PA, id, prev)
						failures.Add(1)
						return
					}
					mine = append(mine, pg)
				} else {
					i := rng.Intn(len(mine))
					pg := mine[i]
					mine[i] = mine[len(mine)-1]
					mine = mine[:len(mine)-1]
					owner.Delete(pg)
					m.FreeCPU(id, pg)
				}
			}
			for _, pg := range mine {
				owner.Delete(pg)
				m.FreeCPU(id, pg)
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	reaps.Wait()
	if failures.Load() > 0 {
		return
	}
	if err := checkAllocInvariants(m, map[*Page]bool{}); err != nil {
		t.Fatalf("quiescent check after concurrent run: %v", err)
	}
	if got := m.FreePages(); got != npages {
		t.Fatalf("FreePages=%d at quiescence, want %d", got, npages)
	}
}

// TestAllocPropertyCatchesDoubleFree mutation-checks the checker: a
// seeded double-free — the canonical allocator corruption — must be
// reported, both in the magazine layout and in the single-pool layout.
// If this test fails, the property suite has lost its teeth.
func TestAllocPropertyCatchesDoubleFree(t *testing.T) {
	for _, caches := range []int{4, 0} {
		t.Run(fmt.Sprintf("caches-%d", caches), func(t *testing.T) {
			m := NewMem(sim.NewClock(), sim.DefaultCosts(), sim.NewStats(), 64)
			if caches > 0 {
				m.SetAllocCaches(caches, 8)
			}
			live := make(map[*Page]bool)
			var pages []*Page
			for i := 0; i < 8; i++ {
				pg, err := m.AllocCPU(i, nil, 0, false)
				if err != nil {
					t.Fatal(err)
				}
				live[pg] = true
				pages = append(pages, pg)
			}
			victim := pages[3]
			delete(live, victim)
			m.FreeCPU(1, victim)
			if err := checkAllocInvariants(m, live); err != nil {
				t.Fatalf("healthy state flagged: %v", err)
			}
			m.FreeCPU(2, victim) // the seeded bug
			if err := checkAllocInvariants(m, live); err == nil {
				t.Fatal("checker did not detect a double-freed frame")
			} else {
				t.Logf("detected as expected: %v", err)
			}
		})
	}
}

// FuzzAllocFree drives the modelled op stream from an arbitrary byte
// slice: two bytes per op (opcode, argument), full invariant check after
// every step. The seed corpus covers each op kind; `go test -fuzz` mines
// for counterexamples.
func FuzzAllocFree(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 3, 0, 6, 0})
	f.Add([]byte{0, 1, 0, 2, 5, 1, 5, 2, 4, 9})
	f.Add([]byte{2, 7, 2, 8, 2, 9, 3, 3, 6, 0, 1, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		const (
			cpus   = 3
			batch  = 4
			npages = 40
		)
		m := propMem(cpus, batch, npages)
		live := make(map[*Page]bool)
		var order []*Page
		for i := 0; i+1 < len(data) && i < 512; i += 2 {
			propStep(t, m, int(data[i])%7, int(data[i+1]), live, &order)
			if err := checkAllocInvariants(m, live); err != nil {
				t.Fatalf("op %d (%d,%d): %v", i/2, data[i]%7, data[i+1], err)
			}
		}
	})
}
