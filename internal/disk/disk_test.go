package disk

import (
	"errors"
	"testing"
	"testing/quick"

	"uvm/internal/param"
	"uvm/internal/sim"
)

func newTestDisk(nblocks int64) (*Disk, *sim.Clock, *sim.Stats) {
	clock := sim.NewClock()
	stats := sim.NewStats()
	return New(clock, sim.DefaultCosts(), stats, nblocks), clock, stats
}

func page(fill byte) []byte {
	b := make([]byte, param.PageSize)
	for i := range b {
		b[i] = fill
	}
	return b
}

func TestReadWriteRoundTrip(t *testing.T) {
	d, _, _ := newTestDisk(64)
	want := page(0xab)
	if err := d.WritePages(10, [][]byte{want}); err != nil {
		t.Fatal(err)
	}
	got := page(0)
	if err := d.ReadPages(10, [][]byte{got}); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != 0xab {
			t.Fatalf("byte %d = %#x after round trip", i, got[i])
		}
	}
}

func TestUnwrittenBlocksReadZero(t *testing.T) {
	d, _, _ := newTestDisk(8)
	buf := page(0xff)
	if err := d.ReadPages(3, [][]byte{buf}); err != nil {
		t.Fatal(err)
	}
	for i, b := range buf {
		if b != 0 {
			t.Fatalf("byte %d = %#x, want zero", i, b)
		}
	}
}

func TestMultiPageTransfer(t *testing.T) {
	d, _, stats := newTestDisk(64)
	data := [][]byte{page(1), page(2), page(3), page(4)}
	if err := d.WritePages(4, data); err != nil {
		t.Fatal(err)
	}
	bufs := [][]byte{page(0), page(0), page(0), page(0)}
	if err := d.ReadPages(4, bufs); err != nil {
		t.Fatal(err)
	}
	for i, buf := range bufs {
		if buf[0] != byte(i+1) {
			t.Fatalf("block %d has fill %#x", i, buf[0])
		}
	}
	if got := stats.Get(sim.CtrDiskPagesRead); got != 4 {
		t.Fatalf("pages read counter = %d", got)
	}
	if got := stats.Get(sim.CtrDiskWrites); got != 1 {
		t.Fatalf("one multi-page write should be one I/O, counter = %d", got)
	}
}

func TestOutOfRange(t *testing.T) {
	d, _, _ := newTestDisk(4)
	if err := d.ReadPages(4, [][]byte{page(0)}); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("read past end: %v", err)
	}
	if err := d.WritePages(-1, [][]byte{page(0)}); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("negative block: %v", err)
	}
	if err := d.WritePages(3, [][]byte{page(0), page(0)}); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("extent past end: %v", err)
	}
}

func TestSeekAccounting(t *testing.T) {
	d, clock, stats := newTestDisk(128)
	costs := sim.DefaultCosts()

	// First access: command overhead + seek + one page.
	if err := d.WritePages(0, [][]byte{page(1)}); err != nil {
		t.Fatal(err)
	}
	want := costs.DiskOp + costs.DiskSeek + costs.DiskPageIO
	if got := clock.Now(); got != want {
		t.Fatalf("first I/O charged %v, want %v", got, want)
	}
	// Sequential follow-up: command overhead but no seek.
	if err := d.WritePages(1, [][]byte{page(2)}); err != nil {
		t.Fatal(err)
	}
	want += costs.DiskOp + costs.DiskPageIO
	if got := clock.Now(); got != want {
		t.Fatalf("sequential I/O charged seek: %v, want %v", got, want)
	}
	// Discontiguous: seek again.
	if err := d.WritePages(100, [][]byte{page(3)}); err != nil {
		t.Fatal(err)
	}
	want += costs.DiskOp + costs.DiskSeek + costs.DiskPageIO
	if got := clock.Now(); got != want {
		t.Fatalf("discontiguous I/O missing seek: %v, want %v", got, want)
	}
	if got := stats.Get(sim.CtrDiskSeeks); got != 2 {
		t.Fatalf("seek count = %d, want 2", got)
	}
}

func TestClusteredWriteCheaperThanSinglePages(t *testing.T) {
	// The core of Figure 5: one 64-page I/O must be far cheaper than 64
	// scattered one-page I/Os.
	dc, clockC, _ := newTestDisk(4096)
	cluster := make([][]byte, 64)
	for i := range cluster {
		cluster[i] = page(byte(i))
	}
	if err := dc.WritePages(0, cluster); err != nil {
		t.Fatal(err)
	}

	ds, clockS, _ := newTestDisk(4096)
	for i := 0; i < 64; i++ {
		// Scattered slots, as BSD VM's per-page pageout produces.
		if err := ds.WritePages(int64(i*7), [][]byte{page(byte(i))}); err != nil {
			t.Fatal(err)
		}
	}
	if clockC.Now()*10 > clockS.Now() {
		t.Fatalf("clustered write (%v) should be >10x cheaper than scattered (%v)",
			clockC.Now(), clockS.Now())
	}
}

func TestAlloc(t *testing.T) {
	d, _, _ := newTestDisk(16)
	a, err := d.Alloc(4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := d.Alloc(4)
	if err != nil {
		t.Fatal(err)
	}
	if a == b || b < a+4 {
		t.Fatalf("overlapping extents: %d %d", a, b)
	}
	if _, err := d.Alloc(16); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("over-allocation: %v", err)
	}
	if _, err := d.Alloc(0); err == nil {
		t.Fatal("zero-size extent must fail")
	}
}

func TestFailureInjection(t *testing.T) {
	d, _, _ := newTestDisk(8)
	boom := errors.New("media error")
	d.FailRead = func(block int64) error {
		if block == 5 {
			return boom
		}
		return nil
	}
	if err := d.ReadPages(4, [][]byte{page(0)}); err != nil {
		t.Fatalf("unexpected error on healthy block: %v", err)
	}
	if err := d.ReadPages(5, [][]byte{page(0)}); !errors.Is(err, boom) {
		t.Fatalf("injected error not surfaced: %v", err)
	}
	d.FailWrite = func(block int64) error { return boom }
	if err := d.WritePages(0, [][]byte{page(0)}); !errors.Is(err, boom) {
		t.Fatalf("injected write error not surfaced: %v", err)
	}
}

func TestBadBufferSize(t *testing.T) {
	d, _, _ := newTestDisk(8)
	if err := d.ReadPages(0, [][]byte{make([]byte, 100)}); err == nil {
		t.Fatal("short buffer accepted")
	}
	if err := d.WritePages(0, [][]byte{make([]byte, param.PageSize+1)}); err == nil {
		t.Fatal("long buffer accepted")
	}
}

func TestRoundTripProperty(t *testing.T) {
	d, _, _ := newTestDisk(256)
	prop := func(blockRaw uint8, fill byte) bool {
		block := int64(blockRaw)
		in := page(fill)
		if err := d.WritePages(block, [][]byte{in}); err != nil {
			return false
		}
		out := page(^fill)
		if err := d.ReadPages(block, [][]byte{out}); err != nil {
			return false
		}
		for i := range out {
			if out[i] != fill {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestDeferredTransfersChargeNoTime(t *testing.T) {
	d, clock, stats := newTestDisk(16)
	want := page(0x3c)
	if err := d.WriteBlocksDeferred(5, [][]byte{want}); err != nil {
		t.Fatal(err)
	}
	if clock.Now() != 0 {
		t.Fatalf("deferred write charged %v", clock.Now())
	}
	got := page(0)
	if err := d.ReadPages(5, [][]byte{got}); err != nil {
		t.Fatal(err)
	}
	if got[0] != 0x3c {
		t.Fatalf("deferred round trip lost data: %#x", got[0])
	}
	if stats.Get("disk.writes.deferred") != 1 {
		t.Fatal("deferred counter not maintained")
	}
	// Range and size validation still applies.
	if err := d.WriteBlocksDeferred(16, [][]byte{want}); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("deferred write past end: %v", err)
	}
	if err := d.WriteBlocksDeferred(-1, [][]byte{want}); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("deferred write before start: %v", err)
	}
	if err := d.WriteBlocksDeferred(0, [][]byte{make([]byte, 7)}); err == nil {
		t.Fatal("short buffer accepted")
	}
}

func TestDeferredFailureInjection(t *testing.T) {
	d, _, _ := newTestDisk(8)
	boom := errors.New("deferred media error")
	d.FailWrite = func(int64) error { return boom }
	if err := d.WriteBlocksDeferred(0, [][]byte{page(0)}); !errors.Is(err, boom) {
		t.Fatalf("deferred write error not surfaced: %v", err)
	}
}
