package sim

import (
	"sync"
	"testing"
	"testing/quick"
	"time"
	"unsafe"
)

func TestClockAdvance(t *testing.T) {
	c := NewClock()
	if c.Now() != 0 {
		t.Fatalf("new clock at %v, want 0", c.Now())
	}
	c.Advance(5 * time.Microsecond)
	c.Advance(3 * time.Microsecond)
	if got := c.Now(); got != 8*time.Microsecond {
		t.Fatalf("Now = %v, want 8µs", got)
	}
}

func TestClockNegativeAdvanceIgnored(t *testing.T) {
	c := NewClock()
	c.Advance(time.Millisecond)
	c.Advance(-time.Second)
	if got := c.Now(); got != time.Millisecond {
		t.Fatalf("negative advance changed the clock: %v", got)
	}
}

func TestClockChargeN(t *testing.T) {
	c := NewClock()
	c.ChargeN(10, 100*time.Nanosecond)
	if got := c.Now(); got != time.Microsecond {
		t.Fatalf("ChargeN: %v, want 1µs", got)
	}
	c.ChargeN(-3, time.Second) // ignored
	c.ChargeN(3, -time.Second) // ignored
	if got := c.Now(); got != time.Microsecond {
		t.Fatalf("invalid ChargeN changed the clock: %v", got)
	}
}

func TestClockSince(t *testing.T) {
	c := NewClock()
	c.Advance(time.Second)
	mark := c.Now()
	c.Advance(250 * time.Millisecond)
	if got := c.Since(mark); got != 250*time.Millisecond {
		t.Fatalf("Since = %v", got)
	}
}

func TestClockConcurrent(t *testing.T) {
	c := NewClock()
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < per; j++ {
				c.Advance(time.Nanosecond)
			}
		}()
	}
	wg.Wait()
	if got := c.Now(); got != workers*per*time.Nanosecond {
		t.Fatalf("concurrent advance lost updates: %v", got)
	}
}

func TestDefaultCostsSanity(t *testing.T) {
	costs := DefaultCosts()
	// Every cost must be positive — a zero cost silently removes an
	// operation from the model.
	checks := map[string]time.Duration{
		"LockAcquire": costs.LockAcquire, "MapLookupEntry": costs.MapLookupEntry,
		"HashLookup": costs.HashLookup, "MapEntryAlloc": costs.MapEntryAlloc,
		"MapEntryFree": costs.MapEntryFree, "ObjectAlloc": costs.ObjectAlloc,
		"ObjectFree": costs.ObjectFree, "PagerAlloc": costs.PagerAlloc,
		"AnonAlloc": costs.AnonAlloc, "AnonFree": costs.AnonFree,
		"VnodeAlloc": costs.VnodeAlloc, "NameLookup": costs.NameLookup,
		"AmapAlloc": costs.AmapAlloc, "AmapPerSlot": costs.AmapPerSlot,
		"PageAlloc": costs.PageAlloc, "PageFree": costs.PageFree,
		"PageZero": costs.PageZero, "PageCopy": costs.PageCopy,
		"PageTouch": costs.PageTouch, "PmapEnter": costs.PmapEnter,
		"PmapRemove": costs.PmapRemove, "PmapProtect": costs.PmapProtect,
		"PmapExtract": costs.PmapExtract, "FaultTrap": costs.FaultTrap,
		"ChainSearch": costs.ChainSearch, "CollapseScan": costs.CollapseScan,
		"SwapSlotAlloc": costs.SwapSlotAlloc, "DiskSeek": costs.DiskSeek,
		"DiskOp": costs.DiskOp, "DiskPageIO": costs.DiskPageIO,
	}
	for name, v := range checks {
		if v <= 0 {
			t.Errorf("cost %s is %v, must be positive", name, v)
		}
	}
	// Relative sanity: disk dominates CPU, copy costs more than zero-fill,
	// a fault trap costs more than a lock.
	if costs.DiskSeek < 1000*costs.PageCopy {
		t.Errorf("disk seek should dominate page copy by orders of magnitude")
	}
	if costs.PageCopy <= costs.PageZero {
		t.Errorf("copying a page must cost more than zeroing one")
	}
	if costs.FaultTrap <= costs.LockAcquire {
		t.Errorf("fault trap must cost more than a lock acquire")
	}
}

func TestStatsBasics(t *testing.T) {
	s := NewStats()
	s.Inc("a")
	s.Add("a", 2)
	s.Add("b", -1)
	if s.Get("a") != 3 || s.Get("b") != -1 || s.Get("missing") != 0 {
		t.Fatalf("counter values wrong: a=%d b=%d", s.Get("a"), s.Get("b"))
	}
	snap := s.Snapshot()
	s.Inc("a")
	if snap["a"] != 3 {
		t.Fatalf("snapshot must be a copy")
	}
	s.Max("hw", 10)
	s.Max("hw", 5)
	if s.Get("hw") != 10 {
		t.Fatalf("Max high-water mark wrong: %d", s.Get("hw"))
	}
	s.Reset()
	if s.Get("a") != 0 {
		t.Fatalf("reset did not clear")
	}
}

func TestStatsString(t *testing.T) {
	s := NewStats()
	s.Add("zzz", 1)
	s.Add("aaa", 2)
	out := s.String()
	if len(out) == 0 {
		t.Fatal("empty render")
	}
	// Sorted: aaa must appear before zzz.
	if idxA, idxZ := indexOf(out, "aaa"), indexOf(out, "zzz"); idxA < 0 || idxZ < 0 || idxA > idxZ {
		t.Fatalf("counters not sorted in render:\n%s", out)
	}
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

func TestStatsConcurrent(t *testing.T) {
	s := NewStats()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				s.Inc("n")
			}
		}()
	}
	wg.Wait()
	if got := s.Get("n"); got != 8000 {
		t.Fatalf("lost updates: %d", got)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must give same stream")
		}
	}
	c := NewRNG(43)
	same := true
	a2 := NewRNG(42)
	for i := 0; i < 10; i++ {
		if a2.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds gave identical stream")
	}
}

func TestRNGIntnRange(t *testing.T) {
	r := NewRNG(7)
	prop := func(nRaw uint8) bool {
		n := int(nRaw%100) + 1
		v := r.Intn(n)
		return v >= 0 && v < n
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestRNGPerm(t *testing.T) {
	r := NewRNG(9)
	p := r.Perm(50)
	seen := make(map[int]bool)
	for _, v := range p {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatalf("not a permutation: %v", p)
		}
		seen[v] = true
	}
	if len(seen) != 50 {
		t.Fatalf("missing elements: %v", p)
	}
}

func TestRNGPanics(t *testing.T) {
	r := NewRNG(1)
	mustPanic(t, func() { r.Intn(0) })
	mustPanic(t, func() { r.Bool(1, 0) })
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

// TestHotWordsOnOwnCacheLines is the layout fence for the ledger every
// core writes: the clock and each counter cell fill at least a line, so
// Go's tiny allocator cannot pack two of them, or one of them and
// anything else, into one line.
func TestHotWordsOnOwnCacheLines(t *testing.T) {
	if size := unsafe.Sizeof(cell{}); size%64 != 0 {
		t.Errorf("counter cell is %d bytes, want a multiple of 64", size)
	}
	if size := unsafe.Sizeof(Clock{}); size < 64 {
		t.Errorf("Clock is %d bytes, want at least a 64-byte line", size)
	}
}
