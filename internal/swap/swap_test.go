package swap

import (
	"errors"
	"testing"

	"uvm/internal/disk"
	"uvm/internal/param"
	"uvm/internal/sim"
)

func newTestSwap(nslots int64) (*Swap, *sim.Stats) {
	clock := sim.NewClock()
	costs := sim.DefaultCosts()
	stats := sim.NewStats()
	dev := disk.New(clock, costs, stats, nslots)
	return New(clock, costs, stats, dev), stats
}

func TestAllocFree(t *testing.T) {
	s, stats := newTestSwap(8)
	a, err := s.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Fatal("duplicate slot")
	}
	if s.SlotsInUse() != 2 || stats.Get(sim.CtrSwapSlotsLive) != 2 {
		t.Fatalf("in use = %d", s.SlotsInUse())
	}
	s.Free(a)
	s.Free(b)
	if s.SlotsInUse() != 0 || stats.Get(sim.CtrSwapSlotsLive) != 0 {
		t.Fatalf("in use after free = %d", s.SlotsInUse())
	}
}

func TestExhaustion(t *testing.T) {
	s, _ := newTestSwap(3)
	for i := 0; i < 3; i++ {
		if _, err := s.Alloc(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Alloc(); !errors.Is(err, ErrNoSwap) {
		t.Fatalf("exhaustion: %v", err)
	}
}

func TestAllocContig(t *testing.T) {
	s, _ := newTestSwap(64)
	start, err := s.AllocContig(16)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 16; i++ {
		if !s.inUse(start + i) {
			t.Fatalf("slot %d not marked", start+i)
		}
	}
	if s.SlotsInUse() != 16 {
		t.Fatalf("in use = %d", s.SlotsInUse())
	}
}

func TestAllocContigFindsHoleAfterFragmentation(t *testing.T) {
	s, _ := newTestSwap(16)
	// Allocate all, then free a contiguous hole in the middle.
	if _, err := s.AllocContig(16); err != nil {
		t.Fatal(err)
	}
	s.FreeRange(4, 8)
	start, err := s.AllocContig(8)
	if err != nil {
		t.Fatal(err)
	}
	if start != 4 {
		t.Fatalf("cluster landed at %d, want 4", start)
	}
	// No room for even one more.
	if _, err := s.Alloc(); !errors.Is(err, ErrNoSwap) {
		t.Fatalf("expected full: %v", err)
	}
}

func TestAllocContigTooFragmented(t *testing.T) {
	s, _ := newTestSwap(16)
	if _, err := s.AllocContig(16); err != nil {
		t.Fatal(err)
	}
	// Free every other slot: 8 free but no run of 2.
	for i := int64(0); i < 16; i += 2 {
		s.Free(i)
	}
	if _, err := s.AllocContig(2); !errors.Is(err, ErrNoSwap) {
		t.Fatalf("fragmented partition satisfied a contiguous request: %v", err)
	}
	// Singles still work.
	if _, err := s.Alloc(); err != nil {
		t.Fatal(err)
	}
}

func TestWraparound(t *testing.T) {
	s, _ := newTestSwap(8)
	a, _ := s.AllocContig(6) // hint now at 6
	s.FreeRange(a, 6)
	// A 4-slot request from hint 6 must wrap to the start.
	start, err := s.AllocContig(4)
	if err != nil {
		t.Fatal(err)
	}
	if start != 0 {
		t.Fatalf("wraparound allocation at %d, want 0", start)
	}
}

func TestDoubleFreePanics(t *testing.T) {
	s, _ := newTestSwap(4)
	slot, _ := s.Alloc()
	s.Free(slot)
	defer func() {
		if recover() == nil {
			t.Error("expected panic on double free")
		}
	}()
	s.Free(slot)
}

func TestFreeNoSlotIsNoop(t *testing.T) {
	s, _ := newTestSwap(4)
	s.Free(NoSlot) // must not panic
	if s.SlotsInUse() != 0 {
		t.Fatal("NoSlot free changed accounting")
	}
}

func TestSlotIORoundTrip(t *testing.T) {
	s, stats := newTestSwap(8)
	slot, _ := s.Alloc()
	out := make([]byte, param.PageSize)
	for i := range out {
		out[i] = byte(i * 3)
	}
	if err := s.WriteCluster(slot, [][]byte{out}); err != nil {
		t.Fatal(err)
	}
	in := make([]byte, param.PageSize)
	if err := s.ReadSlot(slot, in); err != nil {
		t.Fatal(err)
	}
	for i := range in {
		if in[i] != byte(i*3) {
			t.Fatalf("byte %d corrupted through swap", i)
		}
	}
	if stats.Get(sim.CtrSwapIOs) != 2 {
		t.Fatalf("swap I/O count = %d", stats.Get(sim.CtrSwapIOs))
	}
}

func TestClusterIOIsOneOperation(t *testing.T) {
	s, stats := newTestSwap(128)
	start, err := s.AllocContig(64)
	if err != nil {
		t.Fatal(err)
	}
	bufs := make([][]byte, 64)
	for i := range bufs {
		bufs[i] = make([]byte, param.PageSize)
		bufs[i][0] = byte(i)
	}
	if err := s.WriteCluster(start, bufs); err != nil {
		t.Fatal(err)
	}
	if got := stats.Get(sim.CtrDiskWrites); got != 1 {
		t.Fatalf("cluster write issued %d disk I/Os, want 1", got)
	}
	// Verify contents slot by slot.
	in := make([]byte, param.PageSize)
	for i := int64(0); i < 64; i++ {
		if err := s.ReadSlot(start+i, in); err != nil {
			t.Fatal(err)
		}
		if in[0] != byte(i) {
			t.Fatalf("slot %d holds %#x", i, in[0])
		}
	}
}

func TestReassignmentPattern(t *testing.T) {
	// The UVM pageout pattern: pages hold scattered slots; allocate a
	// fresh contiguous run, free the old slots, write once.
	s, _ := newTestSwap(64)
	var old []int64
	for i := 0; i < 8; i++ {
		slot, err := s.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		old = append(old, slot)
		// Burn a slot between allocations so the old ones are scattered.
		if i < 7 {
			burn, _ := s.Alloc()
			defer s.Free(burn)
		}
	}
	start, err := s.AllocContig(8)
	if err != nil {
		t.Fatal(err)
	}
	for _, slot := range old {
		s.Free(slot)
	}
	if s.SlotsInUse() != 8+7 {
		t.Fatalf("in use = %d, want 15 (8 new + 7 burned)", s.SlotsInUse())
	}
	for i := int64(0); i < 8; i++ {
		if !s.inUse(start + i) {
			t.Fatal("reassigned cluster not held")
		}
	}
}

func TestBadClusterSize(t *testing.T) {
	s, _ := newTestSwap(4)
	if _, err := s.AllocContig(0); err == nil {
		t.Fatal("zero-size cluster accepted")
	}
	if _, err := s.AllocContig(-1); err == nil {
		t.Fatal("negative cluster accepted")
	}
}

func TestClusterLargerThanDevice(t *testing.T) {
	s, _ := newTestSwap(8)
	if _, err := s.AllocContig(9); !errors.Is(err, ErrNoSwap) {
		t.Fatalf("cluster larger than the device: %v", err)
	}
	if start, err := s.AllocContig(8); err != nil || start != 0 {
		t.Fatalf("cluster the size of the device: %d, %v", start, err)
	}
}

// TestClusterNeverSpansDevices: a cluster that does not fit in the free
// tail of the device is placed whole in a hole further back, never run
// past the device's last slot.
func TestClusterNeverSpansDevices(t *testing.T) {
	s, _ := newTestSwap(16)
	head, err := s.AllocContig(10)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.AllocContig(2); err != nil {
		t.Fatal(err)
	}
	// Four slots stay free at the tail, ten at the head.
	s.FreeRange(head, 10)
	start, err := s.AllocContig(8)
	if err != nil {
		t.Fatal(err)
	}
	if start+8 > s.Slots() {
		t.Fatalf("cluster [%d,%d) runs past the device's end at %d", start, start+8, s.Slots())
	}
}

// TestSlotIsDiskBlock: slot n is block n of the swap disk, with no
// translation on the way.
func TestSlotIsDiskBlock(t *testing.T) {
	clock := sim.NewClock()
	costs := sim.DefaultCosts()
	stats := sim.NewStats()
	dev := disk.New(clock, costs, stats, 8)
	s := New(clock, costs, stats, dev)
	out := make([]byte, param.PageSize)
	out[0] = 0xd5
	if err := s.WriteCluster(5, [][]byte{out}); err != nil {
		t.Fatal(err)
	}
	raw := make([]byte, param.PageSize)
	if err := dev.ReadPages(5, [][]byte{raw}); err != nil || raw[0] != 0xd5 {
		t.Fatalf("disk block 5 after writing slot 5: %#x, %v", raw[0], err)
	}
	raw[0] = 0x5d
	if err := dev.WritePages(6, [][]byte{raw}); err != nil {
		t.Fatal(err)
	}
	in := make([]byte, param.PageSize)
	if err := s.ReadSlot(6, in); err != nil || in[0] != 0x5d {
		t.Fatalf("slot 6 after writing disk block 6: %#x, %v", in[0], err)
	}
}
