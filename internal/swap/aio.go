package swap

import (
	"uvm/internal/disk"
	"uvm/internal/sim"
)

// This file is the asynchronous half of the swap I/O path: cluster
// writes whose completions are delivered by callback, which is how a
// reclaim pass overlaps its scan with pageout I/O still on the wire.
//
// The window, backpressure and in-flight accounting all live in
// disk.AsyncWriter — the engine shared with the vfs writeback path. Swap
// owns one writer for its disk and keeps only the swap.aio.* stats.

// DefaultAIOWindow is the in-flight cluster-write window used when
// SetAIOWindow was never called (or asked for 0).
const DefaultAIOWindow = disk.DefaultAIOWindow

// SetAIOWindow sets the in-flight window for asynchronous cluster
// writes; n <= 0 restores the default. Boot applies
// uvm.Config.PageoutWindow with it.
func (s *Swap) SetAIOWindow(n int) { s.writer.SetWindow(n) }

// AIOInFlight returns the number of asynchronous cluster writes currently
// submitted but not yet completed (test/debug helper).
func (s *Swap) AIOInFlight() int { return s.writer.InFlight() }

// WriteClusterAsync submits a contiguous cluster write and returns as
// soon as the disk's window has admitted it, blocking only while the
// window is full. done is invoked exactly once, from another goroutine,
// with the write's result — disk.ErrOutOfRange for a run past the end of
// the disk; the caller must treat the buffers as owned by the I/O until
// then.
func (s *Swap) WriteClusterAsync(start int64, bufs [][]byte, done func(error)) {
	s.stats.Inc(sim.CtrSwapAIOWrites)
	s.stats.Add(sim.CtrSwapAIOPages, int64(len(bufs)))
	s.writer.Submit(start, bufs, done)
}

// DrainAsync blocks until every asynchronous cluster write submitted so
// far has completed (its done callback has returned).
func (s *Swap) DrainAsync() { s.writer.Drain() }
