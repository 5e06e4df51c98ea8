package vmapi

import (
	"uvm/internal/param"
	"uvm/internal/phys"
	"uvm/internal/vfs"
)

// The argument rules and per-page loops of the system calls, shared by
// both VM systems so that the same call gets the same answer from each.

// PageRange is the range rule of every call that takes an address range:
// the pages [Trunc(addr), Round(addr+length)) it touches, empty when
// length is 0. A range whose end wraps the address space is ErrInvalid.
func PageRange(addr param.VAddr, length param.VSize) (start, end param.VAddr, err error) {
	end = addr + param.VAddr(length)
	if end < addr || param.Round(end) < end {
		return 0, 0, ErrInvalid
	}
	start = param.Trunc(addr)
	if length == 0 {
		return start, start, nil
	}
	return start, param.Round(end), nil
}

// MappedRange is PageRange for the calls that need a mapping under the
// range (Mprotect, Mlock, Sysctl, Physio): an empty range is ErrFault, as
// no mapping covers it.
func MappedRange(addr param.VAddr, length param.VSize) (start, end param.VAddr, err error) {
	start, end, err = PageRange(addr, length)
	if err == nil && start == end {
		err = ErrFault
	}
	return start, end, err
}

// MmapArgs checks Mmap's arguments and returns the page-rounded length.
// A MapFixed range must be page-aligned and inside [UserTextBase,
// UserMax); a mapping is anonymous exactly when it names no vnode.
func MmapArgs(addr param.VAddr, length param.VSize, flags MapFlags, vn *vfs.Vnode, off param.PageOff) (param.VSize, error) {
	length = param.RoundSize(length) // 0 also for a length that wraps
	if length == 0 || !flags.Valid() || !param.PageAligned(param.VAddr(off)) || (flags&MapAnon != 0) == (vn != nil) {
		return 0, ErrInvalid
	}
	end := addr + param.VAddr(length)
	if flags&MapFixed != 0 && (!param.PageAligned(addr) || addr < param.UserTextBase || end < addr || end > param.UserMax) {
		return 0, ErrInvalid
	}
	return length, nil
}

// TouchRange touches one address in each page of the range, in order,
// stopping at the first access that fails.
func TouchRange(addr param.VAddr, length param.VSize, write bool, access func(va param.VAddr, write bool) error) error {
	start, end, err := PageRange(addr, length)
	if err != nil {
		return err
	}
	for va := start; va < end; va += param.PageSize {
		if err := access(va, write); err != nil {
			return err
		}
	}
	return nil
}

// CopyBytes is the copyin/copyout loop: buf moves to (write) or from the
// memory at addr one page-sized chunk at a time, each chunk copied by the
// use tail that access runs while it holds the chunk's page.
func CopyBytes(addr param.VAddr, buf []byte, write bool, access func(va param.VAddr, write bool, use func(*phys.Page)) error) error {
	if _, _, err := PageRange(addr, param.VSize(len(buf))); err != nil {
		return err
	}
	for done := 0; done < len(buf); {
		va := addr + param.VAddr(done)
		pageOff := int(va & param.PageMask)
		chunk := buf[done : done+min(param.PageSize-pageOff, len(buf)-done)]
		err := access(va, write, func(pg *phys.Page) {
			if write {
				copy(pg.Writable()[pageOff:], chunk)
			} else {
				copy(chunk, pg.Data()[pageOff:])
			}
		})
		if err != nil {
			return err
		}
		done += len(chunk)
	}
	return nil
}

// Mincore reports, for each page of the range, whether resident finds it
// mapped. An empty range, or one that wraps or ends past UserMax, is
// ErrInvalid.
func Mincore(addr param.VAddr, length param.VSize, resident func(va param.VAddr) bool) ([]bool, error) {
	start, end, err := PageRange(addr, length)
	if err != nil || length == 0 || addr+param.VAddr(length) > param.UserMax {
		return nil, ErrInvalid
	}
	out := make([]bool, 0, (end-start)>>param.PageShift)
	for va := start; va < end; va += param.PageSize {
		out = append(out, resident(va))
	}
	return out, nil
}
