package difftest

import (
	"testing"

	"uvm/internal/param"
	"uvm/internal/vmapi"
)

// API-surface tests run identically against both systems.

func TestMincore(t *testing.T) {
	for name, boot := range boots() {
		name, boot := name, boot
		t.Run(name, func(t *testing.T) {
			sys := boot(vmapi.NewMachine(vmapi.MachineConfig{
				RAMPages: 256, SwapPages: 512, FSPages: 256, MaxVnodes: 8,
			}))
			p, _ := sys.NewProcess("p")
			va, _ := p.Mmap(0, 4*param.PageSize, param.ProtRW, vmapi.MapAnon|vmapi.MapPrivate, nil, 0)

			res, err := p.Mincore(va, 4*param.PageSize)
			if err != nil {
				t.Fatal(err)
			}
			for i, r := range res {
				if r {
					t.Errorf("page %d resident before any touch", i)
				}
			}
			// Touch pages 1 and 3.
			p.Access(va+param.PageSize, true)
			p.Access(va+3*param.PageSize, true)
			res, _ = p.Mincore(va, 4*param.PageSize)
			want := []bool{false, true, false, true}
			for i := range want {
				// Lookahead may map more than touched under UVM; a page we
				// touched must be resident, untouched ones may be either
				// (UVM's lookahead only maps *resident* pages, and these
				// were never created, so they stay false on both systems).
				if want[i] && !res[i] {
					t.Errorf("page %d: resident=%v want %v", i, res[i], want[i])
				}
			}
			if _, err := p.Mincore(va, 0); err == nil {
				t.Error("zero-length mincore accepted")
			}
		})
	}
}

func TestMsyncRangeLimited(t *testing.T) {
	// Regression for range-limited msync: only dirty pages inside the
	// range are written back.
	for name, boot := range boots() {
		name, boot := name, boot
		t.Run(name, func(t *testing.T) {
			mach := vmapi.NewMachine(vmapi.MachineConfig{
				RAMPages: 256, SwapPages: 512, FSPages: 256, MaxVnodes: 8,
			})
			sys := boot(mach)
			mach.FS.Create("/rng", 4*param.PageSize, nil)
			vn, _ := mach.FS.Open("/rng")
			defer vn.Unref()
			p, _ := sys.NewProcess("p")
			va, _ := p.Mmap(0, 4*param.PageSize, param.ProtRW, vmapi.MapShared, vn, 0)
			p.WriteBytes(va, []byte{0x11})                  // page 0 dirty
			p.WriteBytes(va+3*param.PageSize, []byte{0x33}) // page 3 dirty

			// Sync only page 0.
			if err := p.Msync(va, param.PageSize); err != nil {
				t.Fatal(err)
			}
			raw := make([]byte, param.PageSize)
			vn.ReadPage(0, raw)
			if raw[0] != 0x11 {
				t.Fatalf("synced page not on disk: %#x", raw[0])
			}
			vn.ReadPage(3, raw)
			if raw[0] == 0x33 {
				t.Fatal("msync wrote back a page outside the requested range")
			}
			// Now sync the rest.
			if err := p.Msync(va+3*param.PageSize, param.PageSize); err != nil {
				t.Fatal(err)
			}
			vn.ReadPage(3, raw)
			if raw[0] != 0x33 {
				t.Fatalf("second msync missed: %#x", raw[0])
			}
		})
	}
}

func TestVforkSemanticsMatch(t *testing.T) {
	for name, boot := range boots() {
		name, boot := name, boot
		t.Run(name, func(t *testing.T) {
			sys := boot(vmapi.NewMachine(vmapi.MachineConfig{
				RAMPages: 256, SwapPages: 512, FSPages: 256, MaxVnodes: 8,
			}))
			p, _ := sys.NewProcess("p")
			va, _ := p.Mmap(0, param.PageSize, param.ProtRW, vmapi.MapAnon|vmapi.MapPrivate, nil, 0)
			p.WriteBytes(va, []byte{1})
			c, err := p.Vfork("c")
			if err != nil {
				t.Fatal(err)
			}
			c.WriteBytes(va, []byte{2})
			b := make([]byte, 1)
			p.ReadBytes(va, b)
			if b[0] != 2 {
				t.Fatalf("vfork not shared: %d", b[0])
			}
			c.Exit()
			p.ReadBytes(va, b)
			if b[0] != 2 {
				t.Fatalf("data lost at vfork exit: %d", b[0])
			}
		})
	}
}

// TestMapFixedOutsideMap: a MapFixed mapping or a Mincore range that
// wraps the address space, starts below the map or ends past UserMax is
// ErrInvalid on both systems, and leaves the map as it was.
func TestMapFixedOutsideMap(t *testing.T) {
	const top = param.VAddr(0xffff_ffff_ffff_f000) // the last page: two pages from here wrap
	fixed := vmapi.MapFixed | vmapi.MapAnon | vmapi.MapPrivate
	rows := []struct {
		name string
		call func(p vmapi.Process) error
	}{
		{"mmap-wraps", func(p vmapi.Process) error {
			_, err := p.Mmap(top, 2*param.PageSize, param.ProtRW, fixed, nil, 0)
			return err
		}},
		{"mmap-below-text", func(p vmapi.Process) error {
			_, err := p.Mmap(param.UserTextBase-param.PageSize, param.PageSize, param.ProtRW, fixed, nil, 0)
			return err
		}},
		{"mmap-length-wraps", func(p vmapi.Process) error {
			_, err := p.Mmap(param.UserTextBase, param.VSize(top)+1, param.ProtRW, fixed, nil, 0)
			return err
		}},
		{"mmap-past-usermax", func(p vmapi.Process) error {
			_, err := p.Mmap(param.UserMax-param.PageSize, 2*param.PageSize, param.ProtRW, fixed, nil, 0)
			return err
		}},
		{"mincore-wraps", func(p vmapi.Process) error {
			_, err := p.Mincore(top, 2*param.PageSize)
			return err
		}},
		{"mincore-past-usermax", func(p vmapi.Process) error {
			_, err := p.Mincore(param.UserMax-param.PageSize, 2*param.PageSize)
			return err
		}},
	}
	for name, boot := range boots() {
		for _, row := range rows {
			t.Run(name+"/"+row.name, func(t *testing.T) {
				sys := boot(vmapi.NewMachine(vmapi.MachineConfig{
					RAMPages: 64, SwapPages: 64, FSPages: 64, MaxVnodes: 4,
				}))
				p, _ := sys.NewProcess("p")
				if _, err := p.Mmap(0, 4*param.PageSize, param.ProtRW, vmapi.MapAnon|vmapi.MapPrivate, nil, 0); err != nil {
					t.Fatal(err)
				}
				before := p.MapEntryCount()
				if err := row.call(p); err != vmapi.ErrInvalid {
					t.Errorf("err = %v, want ErrInvalid", err)
				}
				if got := p.MapEntryCount(); got != before {
					t.Errorf("map entries %d -> %d", before, got)
				}
			})
		}
	}
}
