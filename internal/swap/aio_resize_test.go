package swap

import (
	"sync/atomic"
	"testing"

	"uvm/internal/sim"
)

// Live resize of the per-device async window through the swap layer:
// SetAIOWindow must reach writers that already exist (the control plane
// resizes mid-run), and in-flight cluster writes admitted under the old,
// larger window must be accepted and drained across the shrink.
func TestSetAIOWindowLiveShrink(t *testing.T) {
	s, stats := newTestSwap(256)
	s.SetAIOWindow(4)

	// Materialise the device writer, then hold its writes on the gate.
	dev := s.devs.Load().devices[0]
	w := dev.writer
	if got := w.Window(); got != 4 {
		t.Fatalf("writer window = %d, want 4", got)
	}
	release := make(chan struct{})
	var held atomic.Int32
	heldFull := make(chan struct{})
	w.SetTestGate(func() {
		if held.Add(1) == 4 {
			close(heldFull)
		}
		<-release
	})

	done := make(chan error, 5)
	for i := 0; i < 4; i++ {
		start, err := s.AllocContig(2)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.WriteClusterAsync(start, [][]byte{pageOf(byte(i)), pageOf(byte(i))},
			func(err error) { done <- err }); err != nil {
			t.Fatal(err)
		}
	}
	<-heldFull

	// Shrink while four clusters are on the wire: the existing writer
	// must pick the bound up immediately.
	s.SetAIOWindow(1)
	if got := w.Window(); got != 1 {
		t.Fatalf("writer window after live shrink = %d, want 1", got)
	}
	if got := s.AIOInFlight(); got != 4 {
		t.Fatalf("aio in flight across shrink = %d, want 4", got)
	}

	close(release)
	for i := 0; i < 4; i++ {
		if err := <-done; err != nil {
			t.Fatalf("completion %d: %v", i, err)
		}
	}
	s.DrainAsync()
	if got := s.AIOInFlight(); got != 0 {
		t.Fatalf("aio in flight after drain = %d", got)
	}
	if got := stats.Get(sim.CtrSwapAIOWrites); got != 4 {
		t.Fatalf("aio writes = %d, want 4", got)
	}

	// The shrunken window still admits new work, one cluster at a time.
	start, err := s.AllocContig(2)
	if err != nil {
		t.Fatal(err)
	}
	w.SetTestGate(nil)
	if err := s.WriteClusterAsync(start, [][]byte{pageOf(0xaa), pageOf(0xbb)},
		func(err error) { done <- err }); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("post-shrink completion: %v", err)
	}
	s.DrainAsync()
}
