package uvm

import (
	"uvm/internal/param"
	"uvm/internal/vfs"
	"uvm/internal/vmapi"
)

// UBC — the unified buffer cache. The paper's §10 lists "unifying the VM
// cache with the BSD buffer cache" as future work (NetBSD later shipped
// exactly this, built on UVM's pager machinery). This file implements it:
// the read(2)/write(2) style file I/O paths operate on the *same pages*
// as memory mappings, via the vnode's embedded uvm_object. There is one
// copy of file data in the system, and read/write and mmap views are
// always coherent — no double caching, no flush ordering bugs.

// FileRead copies up to len(buf) bytes from the file at byte offset off
// into buf, going through the vnode's uvm_object pages. Returns the
// number of bytes read (short at end of file).
func (s *System) FileRead(vn *vfs.Vnode, off int, buf []byte) (int, error) {
	return s.fileIO(vn, off, buf, false)
}

// FileWrite copies len(data) bytes into the file at byte offset off via
// the object pages. The pages are marked modified; they reach the disk
// through the ordinary pageout/flush paths. Writes beyond the current
// end of file are truncated (the simulated filesystem does not grow
// files).
func (s *System) FileWrite(vn *vfs.Vnode, off int, data []byte) (int, error) {
	return s.fileIO(vn, off, data, true)
}

func (s *System) fileIO(vn *vfs.Vnode, off int, buf []byte, write bool) (int, error) {
	if off < 0 {
		return 0, vmapi.ErrInvalid
	}

	// Route through the embedded object — the single cache. The object
	// lock serialises the page-level copies against concurrent faults,
	// pageout and other file I/O on the same file.
	o := s.vnodeObject(vn)
	defer s.objUnref(o)

	o.mu.Lock()
	defer o.mu.Unlock()

	done := 0
	for done < len(buf) {
		pos := off + done
		if pos >= vn.Size() {
			break
		}
		idx := pos >> param.PageShift
		pageOff := pos & param.PageMask
		n := param.PageSize - pageOff
		if n > len(buf)-done {
			n = len(buf) - done
		}
		if remain := vn.Size() - pos; n > remain {
			n = remain
		}

		// A busy page is mid-writeback-flush: a write must not scribble
		// on the frame while the I/O owns its contents. Reads are safe —
		// the data is stable until the flush completes. The rest of the
		// request is what the pager may read along with a missing page.
		pg, err := s.objPage(o, idx, idx, (off+len(buf)-1)>>param.PageShift, !write)
		if err != nil {
			return done, err
		}
		pg.Referenced.Store(true)
		// The user/kernel copy of this chunk.
		s.mach.Clock.Advance(s.mach.Costs.PageCopy)
		if write {
			copy(pg.Data[pageOff:pageOff+n], buf[done:done+n])
			pg.Dirty.Store(true)
			s.ctrUbcWrites.Inc()
		} else {
			copy(buf[done:done+n], pg.Data[pageOff:pageOff+n])
			s.ctrUbcReads.Inc()
		}
		if pg.WireCount.Load() == 0 && !pg.Loaned() {
			s.mach.Mem.Activate(pg)
		}
		done += n
	}
	return done, nil
}
