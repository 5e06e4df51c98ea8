package difftest

import (
	"encoding/binary"
	"testing"

	"uvm/internal/disk"
	"uvm/internal/param"
	"uvm/internal/uvm"
	"uvm/internal/vfs"
	"uvm/internal/vmapi"
)

// TestPageBufferSharingTable checks the sharing rule of page buffers
// (internal/phys): a frame and a disk block, or two frames, may hold one
// immutable buffer, and only a store copies — into the storing frame's
// own buffer. Each row shares a buffer one way, stores into one holder
// and checks that every other holder keeps its bytes: the disk block
// behind msync, a pageout, a torn write or a deferred write; the zero
// page; a fork's parent; a loan's borrower. Rows run on both systems
// where the API allows (Loanout is UVM's; BSD VM writes one page per
// command, so it cannot tear a cluster).
func TestPageBufferSharingTable(t *testing.T) {
	rows := []struct {
		name    string
		uvmOnly bool
		plan    *disk.FaultPlan // fault plan of the filesystem disk
		run     func(e sharingEnv)
	}{
		{name: "msync-then-store", run: func(e sharingEnv) {
			vn, va := e.mapFile("/f", 2)
			e.write(va, 0xA0)
			if err := e.p.Msync(va, 2*param.PageSize); err != nil {
				e.t.Fatal(err)
			}
			e.wantDisk(vn, 0, 0xA0)
			e.write(va, 0xB0)
			e.wantDisk(vn, 0, 0xA0)
			e.want(va, 0xB0)
		}},
		{name: "pageout-pagein-store", run: func(e sharingEnv) {
			const pages = 3 * ramPages
			va, err := e.p.Mmap(0, pages*param.PageSize, param.ProtRW, vmapi.MapAnon|vmapi.MapPrivate, nil, 0)
			if err != nil {
				e.t.Fatal(err)
			}
			for i := range pages {
				e.write(va+param.VAddr(i)*param.PageSize, 0xA000+uint64(i))
			}
			if !e.swapHolds(0xA000) {
				e.t.Fatal("page 0 never reached swap")
			}
			e.want(va, 0xA000) // the pagein
			e.write(va, 0xB000)
			if !e.swapHolds(0xA000) || e.swapHolds(0xB000) {
				e.t.Fatal("a store into a paged-in frame changed its swap block")
			}
			e.want(va, 0xB000)
		}},
		{name: "zero-fill-then-store", run: func(e sharingEnv) {
			va := e.anon(1)
			e.want(va, 0) // zero-fill
			e.write(va, 0xB0)
			e.want(e.anon(1), 0)
			e.want(va, 0xB0)
		}},
		{name: "fork-cow", run: func(e sharingEnv) {
			anonVA := e.anon(1)
			vn, err := e.m.FS.Open(e.file("/f", 1))
			if err != nil {
				e.t.Fatal(err)
			}
			defer vn.Unref()
			fileVA, err := e.p.Mmap(0, param.PageSize, param.ProtRW, vmapi.MapPrivate, vn, 0)
			if err != nil {
				e.t.Fatal(err)
			}
			e.want(anonVA, 0)
			e.want(fileVA, fill(0))
			child, err := e.p.Fork("child")
			if err != nil {
				e.t.Fatal(err)
			}
			defer child.Exit()
			c := e
			c.p = child
			c.write(anonVA, 0xB0)
			c.write(fileVA, 0xB1)
			e.want(anonVA, 0)
			e.want(fileVA, fill(0))
			e.wantDisk(vn, 0, fill(0))
			c.want(anonVA, 0xB0)
			c.want(fileVA, 0xB1)
		}},
		{name: "owner-store-over-loan", uvmOnly: true, run: func(e sharingEnv) {
			vn, va := e.mapFile("/f", 1)
			e.want(va, fill(0)) // the pagein: the frame shares the file's block
			loaned, err := e.p.(*uvm.Process).Loanout(va, 1)
			if err != nil {
				e.t.Fatal(err)
			}
			e.write(va, 0xB0)
			if got := binary.LittleEndian.Uint64(loaned[0].Data()); got != fill(0) {
				e.t.Fatalf("the borrower sees %#x, want %#x", got, fill(0))
			}
			e.p.(*uvm.Process).LoanReturn(loaned)
			e.wantDisk(vn, 0, fill(0))
			e.want(va, 0xB0)
		}},
		{name: "torn-cluster-msync", uvmOnly: true,
			// The file's creation is the first write; the msync's run is the second.
			plan: disk.NewFaultPlan(disk.FaultRule{Kind: disk.FaultTornWrite, Block: disk.BlockAny,
				AfterOps: 1, Count: 1, TornPages: 3}),
			run: func(e sharingEnv) {
				const pages, torn = 8, 3
				vn, va := e.mapFile("/f", pages)
				for i := range pages {
					e.write(va+param.VAddr(i)*param.PageSize, 0xA0+uint64(i))
				}
				if err := e.p.Msync(va, pages*param.PageSize); err == nil {
					e.t.Fatal("the torn msync reported no error")
				}
				wantDisk := func() {
					for i := range pages {
						want := fill(i)
						if i < torn {
							want = 0xA0 + uint64(i)
						}
						e.wantDisk(vn, i, want)
					}
				}
				wantDisk()
				for i := range pages {
					e.write(va+param.VAddr(i)*param.PageSize, 0xB0+uint64(i))
				}
				wantDisk()
			}},
		{name: "deferred-write-then-store", run: func(e sharingEnv) {
			vn, va := e.mapFile("/f", 1)
			e.write(va, 0xA0)
			writes := e.m.Stats.Get("vfs.asyncwrites")
			if err := e.p.Munmap(va, param.PageSize); err != nil {
				e.t.Fatal(err)
			}
			if e.m.Stats.Get("vfs.asyncwrites") == writes {
				e.t.Fatal("the last unmap queued no deferred write")
			}
			e.wantDisk(vn, 0, 0xA0)
			va, err := e.p.Mmap(0, param.PageSize, param.ProtRW, vmapi.MapShared, vn, 0)
			if err != nil {
				e.t.Fatal(err)
			}
			e.write(va, 0xB0)
			e.wantDisk(vn, 0, 0xA0)
			e.want(va, 0xB0)
		}},
	}
	for _, row := range rows {
		for _, name := range []string{"bsdvm", "uvm"} {
			if row.uvmOnly && name != "uvm" {
				continue
			}
			t.Run(row.name+"/"+name, func(t *testing.T) {
				m := vmapi.NewMachine(vmapi.MachineConfig{RAMPages: ramPages, SwapPages: 1024,
					FSPages: 1024, MaxVnodes: 16, FSFaultPlan: row.plan})
				sys := boots()[name](m)
				defer sys.Shutdown()
				p, err := sys.NewProcess("p")
				if err != nil {
					t.Fatal(err)
				}
				defer p.Exit()
				row.run(sharingEnv{t: t, m: m, p: p})
			})
		}
	}
}

// sharingEnv is one row's machine and process, and its helpers. Tags
// are 8-byte little-endian words at the start of a page.
type sharingEnv struct {
	t *testing.T
	m *vmapi.Machine
	p vmapi.Process
}

// ramPages is the sharing table's machine size: small, so a region three
// times larger pages out.
const ramPages = 128

// fill is the tag the sharing table's files are created with on page i.
func fill(i int) uint64 { return 0xF000 + uint64(i) }

// file creates a file of n pages, page i starting with fill(i), and
// returns its name.
func (e sharingEnv) file(name string, n int) string {
	err := e.m.FS.Create(name, n*param.PageSize, func(i int, buf []byte) {
		binary.LittleEndian.PutUint64(buf, fill(i))
	})
	if err != nil {
		e.t.Fatal(err)
	}
	return name
}

// mapFile creates a file of n pages and maps it shared, read-write.
func (e sharingEnv) mapFile(name string, n int) (*vfs.Vnode, param.VAddr) {
	vn, err := e.m.FS.Open(e.file(name, n))
	if err != nil {
		e.t.Fatal(err)
	}
	e.t.Cleanup(vn.Unref)
	va, err := e.p.Mmap(0, param.VSize(n)*param.PageSize, param.ProtRW, vmapi.MapShared, vn, 0)
	if err != nil {
		e.t.Fatal(err)
	}
	return vn, va
}

// anon maps n fresh anonymous pages.
func (e sharingEnv) anon(n int) param.VAddr {
	va, err := e.p.Mmap(0, param.VSize(n)*param.PageSize, param.ProtRW, vmapi.MapAnon|vmapi.MapPrivate, nil, 0)
	if err != nil {
		e.t.Fatal(err)
	}
	return va
}

// write stores tag at va: a store into the frame mapped there.
func (e sharingEnv) write(va param.VAddr, tag uint64) {
	e.t.Helper()
	if err := e.p.WriteBytes(va, binary.LittleEndian.AppendUint64(nil, tag)); err != nil {
		e.t.Fatal(err)
	}
}

// want checks the tag at va.
func (e sharingEnv) want(va param.VAddr, tag uint64) {
	e.t.Helper()
	var buf [8]byte
	if err := e.p.ReadBytes(va, buf[:]); err != nil {
		e.t.Fatal(err)
	}
	if got := binary.LittleEndian.Uint64(buf[:]); got != tag {
		e.t.Fatalf("va %#x holds %#x, want %#x", va, got, tag)
	}
}

// wantDisk checks the tag of page i of vn on the disk.
func (e sharingEnv) wantDisk(vn *vfs.Vnode, i int, tag uint64) {
	e.t.Helper()
	buf := make([]byte, param.PageSize)
	if err := vn.ReadPage(i, buf); err != nil {
		e.t.Fatal(err)
	}
	if got := binary.LittleEndian.Uint64(buf); got != tag {
		e.t.Fatalf("page %d of %s holds %#x on disk, want %#x", i, vn.Name(), got, tag)
	}
}

// swapHolds reports whether some swap block starts with tag.
func (e sharingEnv) swapHolds(tag uint64) bool {
	d := e.m.SwapDisk
	buf := make([]byte, param.PageSize)
	for b := range d.Blocks() {
		if err := d.ReadPages(b, [][]byte{buf}); err != nil {
			e.t.Fatal(err)
		}
		if binary.LittleEndian.Uint64(buf) == tag {
			return true
		}
	}
	return false
}
