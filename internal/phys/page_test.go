package phys

import (
	"errors"
	"sync"
	"testing"
	"testing/quick"

	"uvm/internal/param"
	"uvm/internal/sim"
)

func newTestMem(npages int) *Mem {
	return NewMem(sim.NewClock(), sim.DefaultCosts(), sim.NewStats(), npages)
}

func TestBootLayout(t *testing.T) {
	m := newTestMem(16)
	if m.TotalPages() != 16 || m.FreePages() != 16 {
		t.Fatalf("boot: total=%d free=%d", m.TotalPages(), m.FreePages())
	}
}

func TestAllocFreeCycle(t *testing.T) {
	m := newTestMem(4)
	var pages []*Page
	for i := 0; i < 4; i++ {
		p, err := m.Alloc("owner", param.PageToOff(i), false)
		if err != nil {
			t.Fatal(err)
		}
		if p.Owner() != "owner" || p.Off() != param.PageToOff(i) {
			t.Fatalf("identity not set: %v", p)
		}
		pages = append(pages, p)
	}
	if _, err := m.Alloc(nil, 0, false); !errors.Is(err, ErrNoMemory) {
		t.Fatalf("exhaustion: %v", err)
	}
	for _, p := range pages {
		m.Free(p)
	}
	if m.FreePages() != 4 {
		t.Fatalf("free list = %d after freeing all", m.FreePages())
	}
	// Distinct PAs.
	if pages[0].PA == pages[1].PA {
		t.Fatal("duplicate physical addresses")
	}
}

func TestZeroFillAlloc(t *testing.T) {
	m := newTestMem(2)
	p, _ := m.Alloc(nil, 0, false)
	buf := p.Writable()
	for i := range buf {
		buf[i] = 0xee
	}
	m.Free(p)
	p2, _ := m.Alloc(nil, 0, true)
	for i, b := range p2.Data() {
		if b != 0 {
			t.Fatalf("zero-fill alloc byte %d = %#x", i, b)
		}
	}
}

func TestDirtyFreeListReuse(t *testing.T) {
	// A non-zeroed allocation may see stale data — like real hardware.
	// What matters is that Free clears identity, not data.
	m := newTestMem(1)
	p, _ := m.Alloc("a", 0, false)
	p.Writable()[0] = 0x77
	m.Free(p)
	q, _ := m.Alloc(nil, 0, false)
	if q.Owner() != nil {
		t.Fatal("owner survived free")
	}
}

func TestCopyData(t *testing.T) {
	m := newTestMem(2)
	src, _ := m.Alloc(nil, 0, true)
	dst, _ := m.Alloc(nil, 0, false)
	buf := src.Writable()
	for i := range buf {
		buf[i] = byte(i)
	}
	m.CopyData(dst, src)
	for i, b := range dst.Data() {
		if b != byte(i) {
			t.Fatalf("copy mismatch at %d", i)
		}
	}
}

func TestQueueTransitions(t *testing.T) {
	m := newTestMem(4)
	p, _ := m.Alloc(nil, 0, false)
	if p.Queue() != QueueNone {
		t.Fatalf("fresh page on queue %d", p.Queue())
	}
	m.Activate(p)
	if p.Queue() != QueueActive || m.ActivePages() != 1 {
		t.Fatal("activate failed")
	}
	m.Deactivate(p)
	if p.Queue() != QueueInactive || m.InactivePages() != 1 || m.ActivePages() != 0 {
		t.Fatal("deactivate failed")
	}
	m.Activate(p) // inactive -> active again
	if p.Queue() != QueueActive || m.InactivePages() != 0 {
		t.Fatal("re-activate failed")
	}
	m.Dequeue(p)
	if p.Queue() != QueueNone || m.ActivePages() != 0 {
		t.Fatal("dequeue failed")
	}
	m.Free(p)
	if p.Queue() != QueueFree {
		t.Fatal("freed page not on free queue")
	}
}

func TestFreePanicsOnWiredOrLoaned(t *testing.T) {
	m := newTestMem(2)
	p, _ := m.Alloc(nil, 0, false)
	p.WireCount.Store(1)
	mustPanic(t, func() { m.Free(p) })
	p.WireCount.Store(0)
	p.Loan()
	mustPanic(t, func() { m.Free(p) })
}

func mustPanic(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	f()
}

func TestScanInactiveOrderAndSkips(t *testing.T) {
	m := newTestMem(8)
	var order []*Page
	for i := 0; i < 5; i++ {
		p, _ := m.Alloc(nil, param.PageToOff(i), false)
		m.Deactivate(p)
		order = append(order, p)
	}
	order[1].Busy.Store(true)
	order[2].WireCount.Store(1)
	order[3].Loan()

	var scanned []*Page
	m.ScanInactive(10, func(p *Page) bool {
		scanned = append(scanned, p)
		return true
	})
	if len(scanned) != 2 || scanned[0] != order[0] || scanned[1] != order[4] {
		t.Fatalf("scan skipped wrong pages: %v", scanned)
	}

	// Early termination.
	n := 0
	m.ScanInactive(10, func(p *Page) bool { n++; return false })
	if n != 1 {
		t.Fatalf("scan did not stop on false: %d", n)
	}
}

func TestRefillInactiveSecondChance(t *testing.T) {
	m := newTestMem(8)
	ref, _ := m.Alloc(nil, 0, false)
	ref.Referenced.Store(true)
	m.Activate(ref)
	old, _ := m.Alloc(nil, param.PageSize, false)
	m.Activate(old)

	moved := m.RefillInactive(2)
	if moved != 1 {
		t.Fatalf("moved %d, want 1 (referenced page gets a second chance)", moved)
	}
	if old.Queue() != QueueInactive {
		t.Fatal("unreferenced page should have moved")
	}
	if ref.Queue() != QueueActive || ref.Referenced.Load() {
		t.Fatal("referenced page should stay active with bit cleared")
	}
	// Second pass: the reference bit was cleared, so it moves now.
	if m.RefillInactive(2) != 1 || ref.Queue() != QueueInactive {
		t.Fatal("second refill pass should move the page")
	}
}

func TestRefillSkipsWired(t *testing.T) {
	m := newTestMem(4)
	p, _ := m.Alloc(nil, 0, false)
	p.WireCount.Store(1)
	m.Activate(p)
	if got := m.RefillInactive(1); got != 0 {
		t.Fatalf("wired page moved to inactive: %d", got)
	}
}

func TestQueueCountInvariant(t *testing.T) {
	// Property: free + active + inactive + unqueued == total, under any
	// sequence of operations.
	m := newTestMem(32)
	rng := sim.NewRNG(123)
	var live []*Page
	for step := 0; step < 2000; step++ {
		switch rng.Intn(5) {
		case 0:
			if p, err := m.Alloc(nil, 0, false); err == nil {
				live = append(live, p)
			}
		case 1:
			if len(live) > 0 {
				i := rng.Intn(len(live))
				p := live[i]
				live = append(live[:i], live[i+1:]...)
				m.Dequeue(p)
				m.Free(p)
			}
		case 2:
			if len(live) > 0 {
				m.Activate(live[rng.Intn(len(live))])
			}
		case 3:
			if len(live) > 0 {
				m.Deactivate(live[rng.Intn(len(live))])
			}
		case 4:
			m.RefillInactive(rng.Intn(4))
		}
		unqueued := 0
		for _, p := range live {
			if p.Queue() == QueueNone {
				unqueued++
			}
		}
		sum := m.FreePages() + m.ActivePages() + m.InactivePages() + unqueued
		if sum != m.TotalPages() {
			t.Fatalf("step %d: page accounting broken: %d != %d",
				step, sum, m.TotalPages())
		}
	}
}

func TestShardedLRUOrderMatchesGlobal(t *testing.T) {
	// The queues are sharded, but ScanInactive and RefillInactive must
	// visit pages in the same global LRU order a single queue would
	// produce: deactivation order, regardless of which shard each frame
	// landed in.
	m := newTestMem(64)
	var order []*Page
	for i := 0; i < 40; i++ {
		p, err := m.Alloc(nil, param.PageToOff(i), false)
		if err != nil {
			t.Fatal(err)
		}
		m.Deactivate(p)
		order = append(order, p)
	}
	var scanned []*Page
	m.ScanInactive(40, func(p *Page) bool {
		scanned = append(scanned, p)
		return true
	})
	if len(scanned) != 40 {
		t.Fatalf("scanned %d, want 40", len(scanned))
	}
	for i, p := range scanned {
		if p != order[i] {
			t.Fatalf("scan order diverged from deactivation order at %d", i)
		}
	}

	// Refill pops the *active* queue in the same global order.
	m2 := newTestMem(64)
	var activeOrder []*Page
	for i := 0; i < 20; i++ {
		p, _ := m2.Alloc(nil, param.PageToOff(i), false)
		m2.Activate(p)
		activeOrder = append(activeOrder, p)
	}
	m2.RefillInactive(20)
	var afterRefill []*Page
	m2.ScanInactive(20, func(p *Page) bool {
		afterRefill = append(afterRefill, p)
		return true
	})
	for i, p := range afterRefill {
		if p != activeOrder[i] {
			t.Fatalf("refill order diverged from activation order at %d", i)
		}
	}
}

func TestConcurrentQueueTraffic(t *testing.T) {
	// Hammer the sharded queues from many goroutines: allocation, queue
	// transitions and frees on disjoint page sets must not race (-race)
	// and the global accounting must balance at the end.
	m := newTestMem(256)
	var wg sync.WaitGroup
	const workers = 8
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := sim.NewRNG(uint64(w) + 99)
			var live []*Page
			for step := 0; step < 500; step++ {
				switch rng.Intn(4) {
				case 0:
					if p, err := m.Alloc(w, 0, false); err == nil {
						live = append(live, p)
					}
				case 1:
					if len(live) > 0 {
						i := rng.Intn(len(live))
						p := live[i]
						live = append(live[:i], live[i+1:]...)
						m.Dequeue(p)
						m.Free(p)
					}
				case 2:
					if len(live) > 0 {
						m.Activate(live[rng.Intn(len(live))])
					}
				case 3:
					if len(live) > 0 {
						m.Deactivate(live[rng.Intn(len(live))])
					}
				}
			}
			for _, p := range live {
				m.Dequeue(p)
				m.Free(p)
			}
		}(w)
	}
	wg.Wait()
	if m.FreePages() != m.TotalPages() {
		t.Fatalf("leaked frames: free %d != total %d", m.FreePages(), m.TotalPages())
	}
	if m.ActivePages() != 0 || m.InactivePages() != 0 {
		t.Fatalf("queues not empty: active %d inactive %d", m.ActivePages(), m.InactivePages())
	}
}

func TestPageDataDistinct(t *testing.T) {
	// A store into one frame never shows in another, though both share the
	// zero page until then.
	m := newTestMem(8)
	prop := func(fill byte) bool {
		a, err1 := m.Alloc(nil, 0, true)
		b, err2 := m.Alloc(nil, 0, true)
		if err1 != nil || err2 != nil {
			return false
		}
		a.Writable()[0] = fill
		ok := b.Data()[0] == 0 || fill == 0
		m.Free(a)
		m.Free(b)
		return ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestFreeCountTracksAllocFree(t *testing.T) {
	m := newTestMem(32)
	var pages []*Page
	for i := 0; i < 20; i++ {
		p, err := m.Alloc(nil, 0, false)
		if err != nil {
			t.Fatal(err)
		}
		pages = append(pages, p)
		if got := m.FreePages(); got != 32-i-1 {
			t.Fatalf("after %d allocs: free=%d", i+1, got)
		}
	}
	for i, p := range pages {
		m.Free(p)
		if got := m.FreePages(); got != 12+i+1 {
			t.Fatalf("after %d frees: free=%d", i+1, got)
		}
	}
	// The lock-free counter must agree with the actual lists.
	if m.FreePages() != m.freeListLen() {
		t.Fatalf("counter %d != free lists %d", m.FreePages(), m.freeListLen())
	}
}

// TestFreeListIsLIFO: within one queue shard the last frame freed is the
// first allocated again — it is the one still in the cache — in every
// allocation layout: the plain pool, a magazine serving from its own
// stack, and a magazine whose frames went back to the pool (drain, reap)
// and returned through a refill.
func TestFreeListIsLIFO(t *testing.T) {
	cells := []struct {
		name          string
		caches, batch int
		reap          bool
	}{
		{name: "pool"},
		{name: "magazine", caches: 1, batch: 8},
		{name: "magazine-drained", caches: 1, batch: 1, reap: true},
	}
	for _, tc := range cells {
		t.Run(tc.name, func(t *testing.T) {
			const npages = 4 * NumShards
			m := newTestMem(npages)
			m.SetAllocCaches(tc.caches, tc.batch)
			for m.FreePages() > 0 {
				if _, err := m.Alloc(nil, 0, false); err != nil {
					t.Fatal(err)
				}
			}
			// Free three frames of shard 0 interleaved with two of shard 1.
			var freed [NumShards][]*Page
			for _, i := range []int{0, 1, NumShards, NumShards + 1, 2 * NumShards} {
				p := &m.frames[i]
				m.Free(p)
				freed[p.home] = append(freed[p.home], p)
			}
			if tc.reap {
				m.ReapCaches()
			}
			var got [NumShards][]*Page
			for m.FreePages() > 0 {
				p, err := m.Alloc(nil, 0, false)
				if err != nil {
					t.Fatal(err)
				}
				got[p.home] = append(got[p.home], p)
			}
			for sh := range freed {
				if len(got[sh]) != len(freed[sh]) {
					t.Fatalf("shard %d: freed %d frames, allocated %d back", sh, len(freed[sh]), len(got[sh]))
				}
				for i, p := range got[sh] {
					if want := freed[sh][len(freed[sh])-1-i]; p != want {
						t.Errorf("shard %d, allocation %d: got PA=%#x, want PA=%#x (the most recently freed)", sh, i, p.PA, want.PA)
					}
				}
			}
		})
	}
}
