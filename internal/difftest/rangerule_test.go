package difftest

import (
	"testing"

	"uvm/internal/param"
	"uvm/internal/vmapi"
)

// TestRangeRuleTable runs every range-taking call on both systems over
// the ranges that test the one range rule. Both systems must return the
// same error; a range whose end wraps is ErrInvalid; and a refused call
// (ErrInvalid, ErrExited) or an empty range leaves the map's entry count
// and the simulated clock as they were.
func TestRangeRuleTable(t *testing.T) {
	const (
		pg  = param.VAddr(param.PageSize)
		top = param.VAddr(0xffff_ffff_ffff_f000) // the last page: two pages from here wrap
	)
	// Each range is relative to a 4-page mapping at va, all of it resident.
	ranges := []struct {
		name   string
		addr   func(va param.VAddr) param.VAddr
		length param.VSize
	}{
		{"wrapping", func(param.VAddr) param.VAddr { return top }, 2 * param.PageSize},
		{"past-usermax", func(param.VAddr) param.VAddr { return param.UserMax - pg }, 2 * param.PageSize},
		{"empty", func(va param.VAddr) param.VAddr { return va + pg }, 0},
		{"unaligned", func(va param.VAddr) param.VAddr { return va + 100 }, 100},
		{"unmapped", func(va param.VAddr) param.VAddr { return va + 16*pg }, 2 * param.PageSize},
		{"partly-unmapped", func(va param.VAddr) param.VAddr { return va + 3*pg }, 2 * param.PageSize},
		{"exited", func(va param.VAddr) param.VAddr { return va }, param.PageSize},
	}
	type rangeCall func(p vmapi.Process, addr param.VAddr, length param.VSize) error
	calls := []struct {
		name string
		call rangeCall
	}{
		{"mmap-fixed", func(p vmapi.Process, a param.VAddr, l param.VSize) error {
			_, err := p.Mmap(a, l, param.ProtRW, vmapi.MapFixed|vmapi.MapAnon|vmapi.MapPrivate, nil, 0)
			return err
		}},
		{"munmap", vmapi.Process.Munmap},
		{"mprotect", func(p vmapi.Process, a param.VAddr, l param.VSize) error { return p.Mprotect(a, l, param.ProtRead) }},
		{"minherit", func(p vmapi.Process, a param.VAddr, l param.VSize) error { return p.Minherit(a, l, param.InheritShare) }},
		{"madvise", func(p vmapi.Process, a param.VAddr, l param.VSize) error { return p.Madvise(a, l, param.AdviceRandom) }},
		{"mlock", vmapi.Process.Mlock},
		{"munlock", vmapi.Process.Munlock},
		{"msync", vmapi.Process.Msync},
		{"sysctl", vmapi.Process.Sysctl},
		{"physio", vmapi.Process.Physio},
		{"touchrange", func(p vmapi.Process, a param.VAddr, l param.VSize) error { return p.TouchRange(a, l, false) }},
		{"readbytes", func(p vmapi.Process, a param.VAddr, l param.VSize) error { return p.ReadBytes(a, make([]byte, l)) }},
		{"writebytes", func(p vmapi.Process, a param.VAddr, l param.VSize) error { return p.WriteBytes(a, make([]byte, l)) }},
		{"mincore", func(p vmapi.Process, a param.VAddr, l param.VSize) error {
			_, err := p.Mincore(a, l)
			return err
		}},
	}
	for _, c := range calls {
		for _, r := range ranges {
			t.Run(c.name+"/"+r.name, func(t *testing.T) {
				errs := map[string]error{}
				for name, boot := range boots() {
					mach := vmapi.NewMachine(vmapi.MachineConfig{RAMPages: 64, SwapPages: 64, FSPages: 64, MaxVnodes: 4})
					p, _ := boot(mach).NewProcess("p")
					va, err := p.Mmap(0, 4*param.PageSize, param.ProtRW, vmapi.MapAnon|vmapi.MapPrivate, nil, 0)
					if err != nil {
						t.Fatal(err)
					}
					if err := p.TouchRange(va, 4*param.PageSize, true); err != nil {
						t.Fatal(err)
					}
					if r.name == "exited" {
						p.Exit()
					}
					entries, now := p.MapEntryCount(), mach.Clock.Now()
					err = c.call(p, r.addr(va), r.length)
					errs[name] = err
					if err == vmapi.ErrInvalid || err == vmapi.ErrExited || r.length == 0 {
						if got := p.MapEntryCount(); got != entries {
							t.Errorf("%s: err %v, yet map entries %d -> %d", name, err, entries, got)
						}
						if d := mach.Clock.Since(now); d != 0 {
							t.Errorf("%s: err %v, yet charged %v", name, err, d)
						}
					}
				}
				if errs["bsdvm"] != errs["uvm"] {
					t.Errorf("bsdvm returns %v, uvm %v", errs["bsdvm"], errs["uvm"])
				}
				want := map[string]error{"wrapping": vmapi.ErrInvalid, "exited": vmapi.ErrExited}
				if w, ok := want[r.name]; ok && errs["uvm"] != w {
					t.Errorf("err = %v, want %v", errs["uvm"], w)
				}
			})
		}
	}
}
