// Package vfs is the simulated vnode layer: files laid out on the
// simulated disk, an in-kernel vnode table, and — crucially for Figure 2 —
// the vnode cache with LRU recycling.
//
// In 4.4BSD, unreferenced vnodes persist on a free list in the hope of
// being reused; when the kernel needs a vnode and the table is at
// `desiredvnodes`, the least recently used unreferenced vnode is recycled.
// The two VM systems interact with this cache very differently (paper §4):
//
//   - BSD VM keeps its own, separate, 100-entry cache of unreferenced
//     memory objects, and each cached object holds a *reference* on its
//     vnode — pinning the vnode active and distorting the vnode LRU.
//   - UVM has no second cache. Its memory object is embedded in the vnode,
//     file pages stay attached while the vnode persists, and when the
//     vnode layer recycles a vnode it calls the VM hook (OnRecycle) to
//     terminate the embedded object.
package vfs

import (
	"errors"
	"fmt"
	"sync"

	"uvm/internal/disk"
	"uvm/internal/param"
	"uvm/internal/sim"
)

// Errors returned by the vnode layer.
var (
	ErrNotFound  = errors.New("vfs: no such file")
	ErrExists    = errors.New("vfs: file exists")
	ErrTooMany   = errors.New("vfs: out of vnodes") // ENFILE
	ErrBadOffset = errors.New("vfs: offset beyond end of file")
)

// file is the on-disk identity (the "inode"): it survives vnode recycling.
type file struct {
	name   string
	size   int   // bytes
	start  int64 // first disk block of the contiguous extent
	npages int
}

// Vnode is an in-core file handle. VMObj is the hook where a VM system
// hangs its memory-object state: UVM embeds its uvm_object here (one
// allocation, no hash table); BSD VM stores a back pointer to its
// separately-allocated vm_object.
type Vnode struct {
	fs *FS
	f  *file

	refs int
	lru  int64 // sequence number of last deref, for LRU ordering

	// VMObj and OnRecycle belong to the VM system that memory-mapped this
	// file. OnRecycle is invoked when the vnode layer recycles the vnode;
	// the VM must drop pages and forget the object.
	VMObj     any
	OnRecycle func(*Vnode)
}

// GetVMObj returns the VM object hung on this vnode, if any. Guarded by
// the filesystem lock: vnode recycling clears the hook concurrently with
// VM systems consulting it.
func (v *Vnode) GetVMObj() any {
	v.fs.mu.Lock()
	defer v.fs.mu.Unlock()
	return v.VMObj
}

// SetVMObj installs (or clears, with nils) the VM object and recycle
// hook under the filesystem lock.
func (v *Vnode) SetVMObj(obj any, onRecycle func(*Vnode)) {
	v.fs.mu.Lock()
	v.VMObj = obj
	v.OnRecycle = onRecycle
	v.fs.mu.Unlock()
}

// Name returns the file's path name.
func (v *Vnode) Name() string { return v.f.name }

// Size returns the file size in bytes.
func (v *Vnode) Size() int { return v.f.size }

// NumPages returns the file size in pages.
func (v *Vnode) NumPages() int { return v.f.npages }

// Refs returns the current use count (test/debug).
func (v *Vnode) Refs() int {
	v.fs.mu.Lock()
	defer v.fs.mu.Unlock()
	return v.refs
}

// String formats the vnode's identity and state for logs and errors.
func (v *Vnode) String() string {
	return fmt.Sprintf("vnode(%s size=%d refs=%d)", v.f.name, v.f.size, v.refs)
}

// ReadPage reads page idx of the file from disk into buf.
func (v *Vnode) ReadPage(idx int, buf []byte) error {
	if idx < 0 || idx >= v.f.npages {
		return ErrBadOffset
	}
	return v.fs.dev.ReadPages(v.f.start+int64(idx), [][]byte{buf})
}

// ReadPages reads n consecutive pages starting at idx in a single I/O.
func (v *Vnode) ReadPages(idx int, bufs [][]byte) error {
	if idx < 0 || idx+len(bufs) > v.f.npages {
		return ErrBadOffset
	}
	return v.fs.dev.ReadPages(v.f.start+int64(idx), bufs)
}

// WritePage writes page idx of the file back to disk synchronously.
func (v *Vnode) WritePage(idx int, buf []byte) error {
	return v.WritePages(idx, [][]byte{buf})
}

// WritePages writes len(bufs) consecutive pages starting at idx back to
// disk synchronously, in a single I/O.
func (v *Vnode) WritePages(idx int, bufs [][]byte) error {
	if idx < 0 || idx+len(bufs) > v.f.npages {
		return ErrBadOffset
	}
	return v.fs.dev.WritePages(v.f.start+int64(idx), bufs)
}

// WritePageAsync queues page idx for write-back through the buffer cache:
// the caller pays only the in-memory copy; the disk write happens "later"
// (the data is durable immediately in the simulation, but no disk time is
// charged to the caller — matching a bdwrite of a dirty mapped page).
func (v *Vnode) WritePageAsync(idx int, buf []byte) error {
	if idx < 0 || idx >= v.f.npages {
		return ErrBadOffset
	}
	v.fs.clock.Advance(v.fs.costs.PageCopy)
	v.fs.stats.Inc("vfs.asyncwrites")
	return v.fs.dev.WritePagesDeferred(v.f.start+int64(idx), [][]byte{buf})
}

// WriteClusterAsync queues len(bufs) consecutive pages starting at idx
// for asynchronous write-back through the filesystem's bounded in-flight
// write window (the same disk.AsyncWriter engine that backs swap's async
// cluster pageout). The submitter pays only the in-memory copies and
// blocks only while the window is full; done is invoked exactly once,
// from another goroutine, with the write's result, and the caller must
// treat the buffers as owned by the I/O until then. This is the vnode
// backend of UVM's object writeback pipeline (msync, vnode recycling).
func (v *Vnode) WriteClusterAsync(idx int, bufs [][]byte, done func(error)) error {
	if idx < 0 || idx+len(bufs) > v.f.npages {
		return ErrBadOffset
	}
	v.fs.clock.ChargeN(len(bufs), v.fs.costs.PageCopy)
	v.fs.stats.Inc("vfs.aio.writes")
	v.fs.stats.Add("vfs.aio.pages", int64(len(bufs)))
	v.fs.aw.Submit(v.f.start+int64(idx), bufs, done)
	return nil
}

// Ref takes an additional use reference (vref).
func (v *Vnode) Ref() {
	v.fs.mu.Lock()
	defer v.fs.mu.Unlock()
	if v.refs <= 0 {
		panic("vfs: Ref on inactive vnode (use Open)")
	}
	v.refs++
}

// Unref drops a use reference (vrele). At zero the vnode moves to the free
// list, its pages — if a VM system left any attached — intact, awaiting
// either reuse or recycling.
func (v *Vnode) Unref() {
	v.fs.mu.Lock()
	defer v.fs.mu.Unlock()
	if v.refs <= 0 {
		panic("vfs: Unref underflow on " + v.f.name)
	}
	v.refs--
	if v.refs == 0 {
		v.fs.lruSeq++
		v.lru = v.fs.lruSeq
	}
}

// FS is the simulated filesystem + vnode cache.
type FS struct {
	clock *sim.Clock
	costs *sim.Costs
	stats *sim.Stats
	dev   *disk.Disk

	//uvm:lock vfs
	mu        sync.Mutex
	files     map[string]*file
	vnodes    map[string]*Vnode // in-core vnodes, active or free
	maxVnodes int
	lruSeq    int64

	// aw is the bounded-window asynchronous writer for the filesystem
	// disk, shared by every vnode's WriteClusterAsync.
	aw *disk.AsyncWriter
}

// DrainWrites blocks until every asynchronous vnode cluster write
// submitted so far has completed (its done callback has returned).
func (fs *FS) DrainWrites() { fs.aw.Drain() }

// NewFS creates a filesystem on dev with an in-core table of maxVnodes
// vnodes (the kernel's `desiredvnodes`).
func NewFS(clock *sim.Clock, costs *sim.Costs, stats *sim.Stats, dev *disk.Disk, maxVnodes int) *FS {
	if maxVnodes < 1 {
		panic("vfs: need at least one vnode")
	}
	return &FS{
		clock: clock, costs: costs, stats: stats, dev: dev,
		aw:        disk.NewAsyncWriter(dev, 0),
		files:     make(map[string]*file),
		vnodes:    make(map[string]*Vnode),
		maxVnodes: maxVnodes,
	}
}

// MaxVnodes returns the vnode table capacity.
func (fs *FS) MaxVnodes() int { return fs.maxVnodes }

// Create makes a file of the given size. fill, if non-nil, provides the
// initial content of each page; the data is written through to disk.
func (fs *FS) Create(name string, size int, fill func(pageIdx int, buf []byte)) error {
	fs.mu.Lock()
	if _, ok := fs.files[name]; ok {
		fs.mu.Unlock()
		return ErrExists
	}
	fs.mu.Unlock()

	npages := param.Pages(param.VSize(size))
	if npages == 0 {
		npages = 1 // zero-length files still own a block for simplicity
	}
	start, err := fs.dev.Alloc(int64(npages))
	if err != nil {
		return err
	}
	if fill != nil {
		bufs := make([][]byte, npages)
		arena := make([]byte, npages*param.PageSize)
		for i := range bufs {
			bufs[i] = arena[i*param.PageSize : (i+1)*param.PageSize]
			fill(i, bufs[i])
		}
		if err := fs.dev.WritePages(start, bufs); err != nil {
			return err
		}
	}
	fs.mu.Lock()
	fs.files[name] = &file{name: name, size: size, start: start, npages: npages}
	fs.mu.Unlock()
	return nil
}

// Open looks a file up and returns a referenced vnode, allocating or
// reusing an in-core vnode (namei + vget). If the table is full, the least
// recently used unreferenced vnode is recycled — invoking its VM hook.
func (fs *FS) Open(name string) (*Vnode, error) {
	fs.clock.Advance(fs.costs.NameLookup)
	fs.mu.Lock()

	f, ok := fs.files[name]
	if !ok {
		fs.mu.Unlock()
		return nil, fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	if v, ok := fs.vnodes[name]; ok {
		// Cache hit: possibly reactivating a free-list vnode, with any VM
		// pages still attached — this is the path that makes UVM fast in
		// Figure 2.
		v.refs++
		fs.mu.Unlock()
		return v, nil
	}

	// Need a new vnode; recycle if the table is full.
	if len(fs.vnodes) >= fs.maxVnodes {
		victim := fs.lruVictimLocked()
		if victim == nil {
			fs.mu.Unlock()
			return nil, ErrTooMany
		}
		fs.recycleLocked(victim)
	}
	fs.clock.Advance(fs.costs.VnodeAlloc)
	v := &Vnode{fs: fs, f: f, refs: 1}
	fs.vnodes[name] = v
	fs.mu.Unlock()
	return v, nil
}

// lruVictimLocked picks the least recently used unreferenced vnode.
func (fs *FS) lruVictimLocked() *Vnode {
	var victim *Vnode
	//uvm:maporder-ok strict minimum over unique LRU sequence numbers; order-independent
	for _, v := range fs.vnodes {
		if v.refs > 0 {
			continue
		}
		if victim == nil || v.lru < victim.lru {
			victim = v
		}
	}
	return victim
}

// recycleLocked destroys an unreferenced vnode, calling the VM hook so any
// embedded memory object is terminated first. Caller holds fs.mu; the hook
// is called without it (it may call back into the vnode layer).
func (fs *FS) recycleLocked(v *Vnode) {
	delete(fs.vnodes, v.f.name)
	fs.stats.Inc("vfs.recycles")
	if v.OnRecycle != nil {
		hook := v.OnRecycle
		v.OnRecycle = nil
		fs.mu.Unlock()
		hook(v)
		fs.mu.Lock()
	}
	v.VMObj = nil
}

// VnodesInCore returns how many vnodes are in the table (active + free).
func (fs *FS) VnodesInCore() int {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return len(fs.vnodes)
}

// FreeVnodes returns how many in-core vnodes are unreferenced.
func (fs *FS) FreeVnodes() int {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	n := 0
	//uvm:maporder-ok counting only; the sum is order-independent
	for _, v := range fs.vnodes {
		if v.refs == 0 {
			n++
		}
	}
	return n
}

// Files returns the number of files that exist.
func (fs *FS) Files() int {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return len(fs.files)
}
