package uvm

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"uvm/internal/param"
	"uvm/internal/phys"
	"uvm/internal/vmapi"
)

// TestLoanLifetimeTable pins the one rule of a loaned frame's lifetime:
// it lives until its owner and its last borrower have both let go, and
// then it is freed exactly once. Each cell loans out loanPages pages and
// lets the two references go in one order: the owner first (an anon's
// owner is unmapped; an object page is written through a shared mapping,
// which gives the object a fresh copy and orphans the loaned frame), the
// borrower first (LoanReturn), or both at once on two goroutines. Between
// the two steps every frame must still be live and hold its data; after
// both, FreePages must be back at its starting value — one frame short is
// a leak, one over is a double free — and every loaned frame free and
// owner-less, except an object page whose write came after its loan was
// back: that write goes in place, and the object keeps the frame. The
// racing cells repeat, so that the owner's drop and the borrower's meet
// on the same frame.
func TestLoanLifetimeTable(t *testing.T) {
	const loanPages = 32
	owners := []struct {
		name string
		// setup makes loanPages pages at va, page i holding fill(i), given
		// the va the cell's last round used (0 in its first), and reports
		// the free page count that letting go of the loaned frames restores.
		setup func(t *testing.T, p *Process, va param.VAddr) (param.VAddr, int)
		// drop lets go of the owner's references: unmap the anon pages,
		// or break every object page's loan with a write.
		drop func(p *Process, va param.VAddr) error
	}{
		{"anon", func(t *testing.T, p *Process, _ param.VAddr) (param.VAddr, int) {
			free := p.sys.mach.Mem.FreePages()
			va, err := p.Mmap(0, loanPages*param.PageSize, param.ProtRW, vmapi.MapAnon|vmapi.MapPrivate, nil, 0)
			for i := 0; i < loanPages && err == nil; i++ {
				err = p.WriteBytes(va+param.VAddr(i)*param.PageSize, []byte{fill(i)})
			}
			if err != nil {
				t.Fatal(err)
			}
			return va, free
		}, func(p *Process, va param.VAddr) error {
			return p.Munmap(va, loanPages*param.PageSize)
		}},
		{"object", func(t *testing.T, p *Process, va param.VAddr) (param.VAddr, int) {
			var err error
			if va == 0 {
				vn := mkfile(t, p.sys.mach, "/loaned", loanPages, fill(0))
				t.Cleanup(vn.Unref)
				va, err = p.Mmap(0, loanPages*param.PageSize, param.ProtRW, vmapi.MapShared, vn, 0)
			}
			// The last round's writes are undone in place: no loan is out.
			for i := 0; i < loanPages && err == nil; i++ {
				err = p.WriteBytes(va+param.VAddr(i)*param.PageSize, []byte{fill(i)})
			}
			if err != nil {
				t.Fatal(err)
			}
			// The object swaps each loaned frame for a fresh one.
			return va, p.sys.mach.Mem.FreePages()
		}, func(p *Process, va param.VAddr) error {
			for i := 0; i < loanPages; i++ {
				if err := p.WriteBytes(va+param.VAddr(i)*param.PageSize, []byte{0xEE}); err != nil {
					return err
				}
			}
			return nil
		}},
	}
	orders := []struct {
		name   string
		rounds int
	}{{"owner-first", 1}, {"borrower-first", 1}, {"race", 400}}
	for _, o := range owners {
		for _, ord := range orders {
			t.Run(o.name+"/"+ord.name, func(t *testing.T) {
				s, m := bootTest(t, 256)
				p := newProc(t, s, "lender")
				var va param.VAddr
				for range ord.rounds {
					var free int
					va, free = o.setup(t, p, va)
					pages, err := p.Loanout(va, loanPages)
					if err != nil {
						t.Fatal(err)
					}
					live := func(when string) {
						for i, pg := range pages {
							if pg.Queue() == phys.QueueFree || pg.Data()[0] != fill(i) {
								t.Fatalf("%s: loaned frame %d freed or overwritten (%v, %#x)", when, i, pg.Queue(), pg.Data()[0])
							}
						}
					}
					switch ord.name {
					case "owner-first":
						if err := o.drop(p, va); err != nil {
							t.Fatal(err)
						}
						live("after the owner let go")
						for i, pg := range pages {
							if pg.Owner() != nil {
								t.Fatalf("frame %d still names an owner after its owner let go", i)
							}
						}
						p.LoanReturn(pages)
					case "borrower-first":
						p.LoanReturn(pages)
						live("after the loans came back")
						if err := o.drop(p, va); err != nil {
							t.Fatal(err)
						}
					default:
						// The borrower returns each loan the moment the owner
						// lets go of its frame, so the two drops meet on every
						// page.
						var wg sync.WaitGroup
						var dropped atomic.Bool
						wg.Add(2)
						go func() {
							defer wg.Done()
							defer dropped.Store(true)
							if err := o.drop(p, va); err != nil {
								t.Error(err)
							}
						}()
						go func() {
							defer wg.Done()
							for _, pg := range pages {
								for spin := 1; pg.Owner() != nil && !dropped.Load(); spin++ {
									if spin%64 == 0 {
										runtime.Gosched()
									}
								}
								p.LoanReturn([]*phys.Page{pg})
							}
						}()
						wg.Wait()
					}
					for i, pg := range pages {
						// A write that finds the loans back goes in place:
						// the object keeps the frame, and must.
						kept := o.name == "object" && pg.Queue() != phys.QueueFree && owns(pg.Owner(), pg)
						freed := pg.Queue() == phys.QueueFree && pg.Owner() == nil
						switch {
						case o.name == "object" && ord.name == "borrower-first" && !kept:
							t.Fatalf("object page %d lost after its loan came back: %v", i, pg)
						case !kept && !freed:
							t.Fatalf("loaned frame %d not freed once both let go: %v", i, pg)
						}
					}
					if got := m.Mem.FreePages(); got != free {
						t.Fatalf("%d free pages once owner and borrower let go, want %d (%+d)", got, free, got-free)
					}
				}
			})
		}
	}
}

// fill is the byte page i of a loan table cell starts with.
func fill(i int) byte { return 0x40 + byte(i) }

// TestLoanTeardownTable: an object torn down while one of its pages is on
// loan drops its reference to the frame and leaves it to the borrower,
// as a dying anon does. The object dies at its last unmap (a shared
// anonymous region, whose aobj goes with it) or when the vnode cache
// recycles its vnode (a file mapping); the loans come back before the
// teardown or after it. Until they come back the borrower reads its data
// intact, and once both sides let go every loaned frame is free, with
// FreePages back where it started: one over is a double free.
func TestLoanTeardownTable(t *testing.T) {
	const loanPages = 8
	objects := []struct {
		name string
		// setup maps loanPages pages at va, page i holding fill(i).
		setup func(t *testing.T, p *Process) param.VAddr
		// teardown drops the last mapping and makes the object die.
		teardown func(t *testing.T, p *Process, va param.VAddr)
	}{
		{"aobj-last-munmap", func(t *testing.T, p *Process) param.VAddr {
			va, err := p.Mmap(0, loanPages*param.PageSize, param.ProtRW, vmapi.MapAnon|vmapi.MapShared, nil, 0)
			for i := 0; i < loanPages && err == nil; i++ {
				err = p.WriteBytes(va+param.VAddr(i)*param.PageSize, []byte{fill(i)})
			}
			if err != nil {
				t.Fatal(err)
			}
			return va
		}, func(t *testing.T, p *Process, va param.VAddr) {
			if err := p.Munmap(va, loanPages*param.PageSize); err != nil {
				t.Fatal(err)
			}
		}},
		{"vnode-recycle", func(t *testing.T, p *Process) param.VAddr {
			vn := mkfile(t, p.sys.mach, "/lent", loanPages, fill(0))
			defer vn.Unref()
			va, err := p.Mmap(0, loanPages*param.PageSize, param.ProtRead, vmapi.MapShared, vn, 0)
			if err != nil {
				t.Fatal(err)
			}
			return va
		}, func(t *testing.T, p *Process, va param.VAddr) {
			if err := p.Munmap(va, loanPages*param.PageSize); err != nil {
				t.Fatal(err)
			}
			// Opening more files than the vnode table holds recycles the
			// idle vnode, and its object with it.
			m := p.sys.mach
			recycled := m.Stats.Get("uvm.uobj.vnode.recycled")
			for i := 0; m.Stats.Get("uvm.uobj.vnode.recycled") == recycled; i++ {
				if i > 2*m.FS.MaxVnodes() {
					t.Fatal("the file's vnode was never recycled")
				}
				mkfile(t, m, fmt.Sprintf("/other%d", i), 1, 0).Unref()
			}
		}},
	}
	for _, o := range objects {
		for _, returned := range []string{"before", "after"} {
			t.Run(o.name+"/returned-"+returned, func(t *testing.T) {
				s, m := bootTest(t, 256)
				p := newProc(t, s, "lender")
				free := m.Mem.FreePages()
				va := o.setup(t, p)
				pages, err := p.Loanout(va, loanPages)
				if err != nil {
					t.Fatal(err)
				}
				if returned == "before" {
					p.LoanReturn(pages)
				}
				o.teardown(t, p, va)
				if returned == "after" {
					for i, pg := range pages {
						if pg.Queue() == phys.QueueFree || pg.Data()[0] != fill(i) {
							t.Fatalf("loaned frame %d freed or overwritten under its borrower (%v, %#x)", i, pg.Queue(), pg.Data()[0])
						}
					}
					p.LoanReturn(pages)
				}
				for i, pg := range pages {
					if pg.Queue() != phys.QueueFree || pg.Owner() != nil {
						t.Fatalf("loaned frame %d not freed once owner and borrower let go: %v", i, pg)
					}
				}
				if got := m.Mem.FreePages(); got != free {
					t.Fatalf("%d free pages after teardown, want %d (%+d)", got, free, got-free)
				}
			})
		}
	}
}
