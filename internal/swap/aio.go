package swap

// This file is the asynchronous half of the swap I/O path: cluster
// writes whose completions are delivered by callback, which is how a
// reclaim pass overlaps its scan with pageout I/O still on the wire.
//
// The window, backpressure and in-flight accounting all live in
// disk.AsyncWriter — the engine shared with the vfs writeback path. Swap
// owns one writer for its disk and keeps only the swap.aio.* stats.

// SetAIOWindow sets the in-flight window for asynchronous cluster
// writes; n <= 0 restores disk.DefaultAIOWindow. Boot applies
// uvm.Config.PageoutWindow with it.
func (s *Swap) SetAIOWindow(n int) { s.writer.SetWindow(n) }

// WriteClusterAsync submits a contiguous cluster write and returns as
// soon as the disk's window has admitted it, blocking only while the
// window is full. done is invoked exactly once, from another goroutine,
// with the write's result — disk.ErrOutOfRange for a run past the end of
// the disk. The buffers are handed over as the slots' blocks
// (disk.AsyncWriter.Submit): the caller must never write them again.
func (s *Swap) WriteClusterAsync(start int64, bufs [][]byte, done func(error)) {
	s.stats.SwapAIOWrites.Inc()
	s.stats.SwapAIOPages.Add(int64(len(bufs)))
	s.writer.Submit(start, bufs, done)
}
