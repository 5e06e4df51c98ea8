// Package param defines the machine parameters shared by every layer of
// the simulated kernel: page geometry, virtual and physical address types,
// protection bits, inheritance codes and mapping advice.
//
// These mirror the definitions in <machine/param.h>, <uvm/uvm_param.h> and
// <sys/mman.h> of a 4.4BSD-derived kernel. The simulated machine is an
// i386-class 32-bit system with 4 KB pages, matching the platform the
// paper's measurements were taken on.
package param

import "fmt"

// Page geometry. PageSize is fixed at 4096 bytes; the machine-independent
// code never assumes any other value, but tests exercise the helpers
// against the constant so a future change is caught.
const (
	PageShift = 12
	PageSize  = 1 << PageShift
	PageMask  = PageSize - 1
)

// VAddr is a virtual address within some address space.
type VAddr uint64

// PAddr is a physical address (frame base) in simulated RAM.
type PAddr uint64

// VSize is a size in bytes of a virtual range.
type VSize uint64

// PageOff is a page-aligned byte offset within a memory object.
type PageOff uint64

// Standard user address-space layout for simulated processes, loosely
// modeled on the i386 layout used by NetBSD 1.3/1.4.
const (
	UserTextBase  VAddr = 0x0000_1000 // text starts one page up (NULL guard)
	UserStackTop  VAddr = 0xbfbf_e000 // top of user stack
	UserMax       VAddr = 0xbfc0_0000 // end of user address space
	KernelBase    VAddr = 0xc000_0000 // kernel virtual address base
	KernelMax     VAddr = 0xffc0_0000 // end of kernel virtual address space
	MmapHintBase  VAddr = 0x4000_0000 // default hint for anonymous mmap
	SharedLibBase VAddr = 0x4800_0000 // base for mapped shared libraries
)

// Prot is a protection bit mask.
type Prot uint8

const (
	ProtNone  Prot = 0
	ProtRead  Prot = 1 << 0
	ProtWrite Prot = 1 << 1
	ProtExec  Prot = 1 << 2

	ProtRW  = ProtRead | ProtWrite
	ProtRX  = ProtRead | ProtExec
	ProtRWX = ProtRead | ProtWrite | ProtExec
)

// Allows reports whether p grants every bit in want.
func (p Prot) Allows(want Prot) bool { return p&want == want }

// String renders the protection in the familiar "rwx" form.
func (p Prot) String() string {
	b := []byte("---")
	if p&ProtRead != 0 {
		b[0] = 'r'
	}
	if p&ProtWrite != 0 {
		b[1] = 'w'
	}
	if p&ProtExec != 0 {
		b[2] = 'x'
	}
	return string(b)
}

// Inherit controls what a child receives for a mapping at fork time,
// settable per mapping with the minherit system call.
type Inherit uint8

const (
	// InheritCopy gives the child a copy-on-write copy (the default for
	// private mappings in traditional Unix).
	InheritCopy Inherit = iota
	// InheritShare gives the child shared access to the same memory.
	InheritShare
	// InheritNone leaves the range unmapped in the child.
	InheritNone
)

func (i Inherit) String() string {
	switch i {
	case InheritCopy:
		return "copy"
	case InheritShare:
		return "share"
	case InheritNone:
		return "none"
	}
	return fmt.Sprintf("inherit(%d)", uint8(i))
}

// Advice is the madvise-style usage hint stored in a map entry. The fault
// handlers use it to size their lookahead window.
type Advice uint8

const (
	AdviceNormal Advice = iota
	AdviceRandom
	AdviceSequential
)

func (a Advice) String() string {
	switch a {
	case AdviceNormal:
		return "normal"
	case AdviceRandom:
		return "random"
	case AdviceSequential:
		return "sequential"
	}
	return fmt.Sprintf("advice(%d)", uint8(a))
}

// Lookahead returns the fault-time mapping window for the advice: how many
// resident neighbour pages ahead of and behind the faulting address the
// UVM fault routine should map in (paper §5.4: default four ahead, three
// behind).
func (a Advice) Lookahead() (ahead, behind int) {
	switch a {
	case AdviceNormal:
		return 4, 3
	case AdviceSequential:
		return 8, 0
	default: // AdviceRandom
		return 0, 0
	}
}

// Trunc rounds a virtual address down to a page boundary.
func Trunc(va VAddr) VAddr { return va &^ VAddr(PageMask) }

// Round rounds a virtual address up to a page boundary.
func Round(va VAddr) VAddr { return (va + VAddr(PageMask)) &^ VAddr(PageMask) }

// RoundSize rounds a size up to a whole number of pages.
func RoundSize(sz VSize) VSize { return (sz + VSize(PageMask)) &^ VSize(PageMask) }

// Pages returns the number of pages needed to hold sz bytes.
func Pages(sz VSize) int { return int(RoundSize(sz) >> PageShift) }

// PageAligned reports whether va sits on a page boundary.
func PageAligned(va VAddr) bool { return va&VAddr(PageMask) == 0 }

// OffToPage converts a byte offset within an object to a page index.
func OffToPage(off PageOff) int { return int(off >> PageShift) }

// PageToOff converts a page index within an object to a byte offset.
func PageToOff(idx int) PageOff { return PageOff(idx) << PageShift }
