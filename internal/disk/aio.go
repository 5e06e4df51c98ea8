package disk

import "sync"

// This file is the generalised asynchronous write engine shared by every
// paging backend: a bounded in-flight window of page-run writes to one
// disk, with completions delivered by callback. The swap disk's writer
// carries a reclaim pass's asynchronous cluster pageout; the filesystem
// disk's carries the object writeback pipeline — msync, aobj pageout,
// vnode recycling — with exactly the same machinery.
//
// A writer admits at most its window's worth of writes at once; a
// submitter that finds the window full blocks until a completion opens a
// slot — the natural backpressure that keeps a fast producer (an msync
// sweep, a reclaim pass) from burying a slow disk. Transfers queue at the
// device: each write holds the Disk's own lock for its whole command, so
// there is one head per disk. The transfer runs off the submitter's
// goroutine and is charged as deferred I/O, so the submitter's simulated
// clock never pays for an overlapped write. Completions for different
// submissions may run concurrently and in any order; each callback runs
// exactly once, off the submitter's goroutine.
//
// The window is a setting of the writer, not a fixed capacity: boot
// applies the configured window with SetWindow to the swap disk's
// writer, which already exists. Admission is a condvar-gated counter, so
// a changed bound gates the next admission and never cancels a write
// already admitted.

// DefaultAIOWindow is the in-flight write window used when a writer is
// created with a non-positive window.
const DefaultAIOWindow = 4

// AsyncWriter is a bounded in-flight window of asynchronous page writes
// to one Disk.
type AsyncWriter struct {
	d *Disk

	//uvm:lock leaf
	mu       sync.Mutex
	cond     *sync.Cond
	window   int // admission bound, see SetWindow
	admitted int // writes holding a window slot (released before done)
	inFlight int // writes submitted (admitted or not) whose done callback has not returned
}

// NewAsyncWriter creates a writer for d admitting window concurrent
// writes (DefaultAIOWindow if window <= 0).
func NewAsyncWriter(d *Disk, window int) *AsyncWriter {
	if window <= 0 {
		window = DefaultAIOWindow
	}
	w := &AsyncWriter{d: d, window: window}
	w.cond = sync.NewCond(&w.mu)
	return w
}

// SetWindow changes the in-flight admission bound of an existing writer
// (n <= 0 restores DefaultAIOWindow). It gates the next admission: writes
// already admitted complete normally, and blocked submitters are woken to
// re-check the bound.
func (w *AsyncWriter) SetWindow(n int) {
	if n <= 0 {
		n = DefaultAIOWindow
	}
	w.mu.Lock()
	w.window = n
	w.cond.Broadcast()
	w.mu.Unlock()
}

// InFlight returns the number of writes submitted but not yet completed
// (their done callback has not returned).
func (w *AsyncWriter) InFlight() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.inFlight
}

// Submit queues an asynchronous write of len(bufs) consecutive blocks
// starting at start, returning as soon as the window has admitted it and
// blocking only while the window is full. done is invoked exactly once,
// from another goroutine, with the write's result. The buffers are handed
// over: they become the blocks (Disk.WriteBlocksDeferred), and the caller
// must never write them again.
func (w *AsyncWriter) Submit(start int64, bufs [][]byte, done func(error)) {
	w.mu.Lock()
	// Counted before the window wait, so a Drain racing a submitter that
	// is still blocked on admission cannot miss its write.
	w.inFlight++
	for w.admitted >= w.window {
		w.cond.Wait()
	}
	w.admitted++
	w.mu.Unlock()

	go func() {
		err := w.d.WriteBlocksDeferred(start, bufs)
		// Release the window slot before running the callback, so a slow
		// completion (or one that submits follow-on work) never blocks
		// the next admission — matching the original channel-semaphore
		// ordering.
		w.mu.Lock()
		w.admitted--
		w.cond.Broadcast()
		w.mu.Unlock()
		done(err)
		w.mu.Lock()
		w.inFlight--
		if w.inFlight == 0 {
			w.cond.Broadcast()
		}
		w.mu.Unlock()
	}()
}

// Drain blocks until every write submitted so far has completed (its
// done callback has returned). Used by shutdown paths that must
// guarantee no completion callback is still running.
func (w *AsyncWriter) Drain() {
	w.mu.Lock()
	for w.inFlight > 0 {
		w.cond.Wait()
	}
	w.mu.Unlock()
}
