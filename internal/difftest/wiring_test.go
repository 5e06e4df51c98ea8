package difftest

import (
	"testing"

	"uvm/internal/param"
	"uvm/internal/phys"
	"uvm/internal/vmapi"
)

// TestFailedWiringTable runs each wiring call over a buffer that is only
// partly mapped, on both systems. The call must return ErrFault and leave
// nothing wired: every frame of the mapping keeps WireCount 0 and stays
// on a paging queue, and so it stays after a later Mlock and Munlock of
// the mapped part.
func TestFailedWiringTable(t *testing.T) {
	const pg = param.VAddr(param.PageSize)
	type span struct{ off, pages param.VAddr }
	// Each layout starts from a resident 4-page mapping at va.
	layouts := []struct {
		name   string
		hole   *span // unmapped before the call
		buffer span  // the call's buffer
		mapped []span
	}{
		{"tail-unmapped", nil, span{3, 2}, []span{{0, 4}}},
		{"hole-in-middle", &span{1, 1}, span{0, 4}, []span{{0, 1}, {2, 2}}},
	}
	calls := []struct {
		name string
		call func(p vmapi.Process, addr param.VAddr, length param.VSize) error
	}{
		{"sysctl", vmapi.Process.Sysctl},
		{"physio", vmapi.Process.Physio},
		{"mlock", vmapi.Process.Mlock},
	}
	for _, c := range calls {
		for _, l := range layouts {
			t.Run(c.name+"/"+l.name, func(t *testing.T) {
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
					if l.hole != nil {
						if err := p.Munmap(va+l.hole.off*pg, param.VSize(l.hole.pages*pg)); err != nil {
							t.Fatal(err)
						}
					}
					// The mapping's frames: every frame on a paging queue
					// now, all of them unwired.
					var frames []*phys.Page
					mach.Mem.ForEachFrame(func(f *phys.Page) bool {
						if q := f.Queue(); q == phys.QueueActive || q == phys.QueueInactive {
							frames = append(frames, f)
						}
						return true
					})
					if len(frames) < 3 {
						t.Fatalf("%s: %d queued frames, want the mapping's", name, len(frames))
					}
					unwired := func(when string) {
						t.Helper()
						for _, f := range frames {
							if n, q := f.WireCount.Load(), f.Queue(); n != 0 || (q != phys.QueueActive && q != phys.QueueInactive) {
								t.Errorf("%s %s: frame PA=%#x has WireCount %d on queue %d", name, when, f.PA, n, q)
							}
						}
					}

					if err := c.call(p, va+l.buffer.off*pg, param.VSize(l.buffer.pages*pg)); err != vmapi.ErrFault {
						t.Errorf("%s: err = %v, want ErrFault", name, err)
					}
					unwired("after the failed call")
					for _, m := range l.mapped {
						a, n := va+m.off*pg, param.VSize(m.pages*pg)
						if err := p.Mlock(a, n); err != nil {
							t.Fatalf("%s: Mlock of the mapped part: %v", name, err)
						}
						if err := p.Munlock(a, n); err != nil {
							t.Fatalf("%s: Munlock of the mapped part: %v", name, err)
						}
					}
					unwired("after Mlock and Munlock of the mapped part")
				}
			})
		}
	}
}
