package swap

import (
	"fmt"

	"uvm/internal/disk"
	"uvm/internal/sim"
)

// This file is the asynchronous half of the swap I/O path: cluster
// writes whose completions are delivered by callback, which is how a
// reclaim pass overlaps its scan with pageout I/O still on the wire.
//
// The window, backpressure and in-flight accounting all live in
// disk.AsyncWriter — the engine shared with the vfs writeback path. Each
// swap device owns one writer, created with the device; Swap keeps only
// the configured window (so a device added later starts with it) and the
// swap.aio.* stats.

// DefaultAIOWindow is the per-device in-flight cluster-write window used
// when SetAIOWindow was never called (or asked for 0).
const DefaultAIOWindow = disk.DefaultAIOWindow

// SetAIOWindow sets the per-device in-flight window for asynchronous
// cluster writes; n <= 0 restores the default. It reaches the writers of
// devices that already exist as well as devices configured after the
// call: boot applies uvm.Config.PageoutWindow to a machine whose swap
// devices were added when it was built.
func (s *Swap) SetAIOWindow(n int) {
	if n <= 0 {
		n = DefaultAIOWindow
	}
	s.aioWindow.Store(int32(n))
	for _, d := range s.devs.Load().devices {
		d.writer.SetWindow(n)
	}
}

// AIOInFlight returns the number of asynchronous cluster writes currently
// submitted but not yet completed (test/debug helper).
func (s *Swap) AIOInFlight() int {
	n := 0
	for _, d := range s.devs.Load().devices {
		n += d.writer.InFlight()
	}
	return n
}

// WriteClusterAsync submits a contiguous cluster write and returns as
// soon as the target device has admitted it to its in-flight window,
// blocking only while the window is full. done is invoked exactly once,
// from another goroutine, with the write's result; the caller must treat
// the buffers as owned by the I/O until then. Malformed requests (a run
// that escapes its device) are reported synchronously and done is never
// called.
func (s *Swap) WriteClusterAsync(start int64, bufs [][]byte, done func(error)) error {
	d := s.deviceFor(start)
	if start-d.base+int64(len(bufs)) > d.size {
		return fmt.Errorf("swap: cluster at %d spans devices", start)
	}
	s.stats.Inc(sim.CtrSwapAIOWrites)
	s.stats.Add(sim.CtrSwapAIOPages, int64(len(bufs)))
	d.writer.Submit(start-d.base, bufs, done)
	return nil
}

// DrainAsync blocks until every asynchronous cluster write submitted so
// far has completed (its done callback has returned).
func (s *Swap) DrainAsync() {
	for _, d := range s.devs.Load().devices {
		d.writer.Drain()
	}
}
