package vfs

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"uvm/internal/disk"
	"uvm/internal/param"
	"uvm/internal/sim"
)

func newTestFS(maxVnodes int) (*FS, *sim.Stats) {
	clock := sim.NewClock()
	costs := sim.DefaultCosts()
	stats := sim.NewStats()
	dev := disk.New(clock, costs, stats, 4096)
	return NewFS(clock, costs, stats, dev, maxVnodes), stats
}

func TestCreateOpenRead(t *testing.T) {
	fs, _ := newTestFS(10)
	err := fs.Create("/etc/passwd", 3*param.PageSize, func(idx int, buf []byte) {
		for i := range buf {
			buf[i] = byte(idx + 1)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	v, err := fs.Open("/etc/passwd")
	if err != nil {
		t.Fatal(err)
	}
	if v.size() != 3*param.PageSize || v.NumPages() != 3 || v.Name() != "/etc/passwd" {
		t.Fatalf("metadata wrong: %v", v)
	}
	buf := make([]byte, param.PageSize)
	for idx := 0; idx < 3; idx++ {
		if err := v.ReadPage(idx, buf); err != nil {
			t.Fatal(err)
		}
		if buf[0] != byte(idx+1) || buf[param.PageSize-1] != byte(idx+1) {
			t.Fatalf("page %d content wrong: %#x", idx, buf[0])
		}
	}
	v.Unref()
}

func TestCreateDuplicate(t *testing.T) {
	fs, _ := newTestFS(4)
	if err := fs.Create("/a", 100, nil); err != nil {
		t.Fatal(err)
	}
	if err := fs.Create("/a", 100, nil); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate create: %v", err)
	}
}

func TestOpenMissing(t *testing.T) {
	fs, _ := newTestFS(4)
	if _, err := fs.Open("/nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing file: %v", err)
	}
}

func TestRefCounting(t *testing.T) {
	fs, _ := newTestFS(4)
	fs.Create("/f", param.PageSize, nil)
	v, _ := fs.Open("/f")
	if v.refCount() != 1 {
		t.Fatalf("refs = %d", v.refCount())
	}
	v.Ref()
	if v.refCount() != 2 {
		t.Fatalf("refs = %d", v.refCount())
	}
	v.Unref()
	v.Unref()
	if v.refCount() != 0 {
		t.Fatalf("refs = %d", v.refCount())
	}
	if fs.freeVnodes() != 1 {
		t.Fatalf("free vnodes = %d", fs.freeVnodes())
	}
	// Reopening reactivates the same vnode.
	v2, _ := fs.Open("/f")
	if v2 != v {
		t.Fatal("reopen allocated a new vnode while cached")
	}
	v2.Unref()
}

func TestUnrefUnderflowPanics(t *testing.T) {
	fs, _ := newTestFS(4)
	fs.Create("/f", 1, nil)
	v, _ := fs.Open("/f")
	v.Unref()
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	v.Unref()
}

func TestRefOnInactivePanics(t *testing.T) {
	fs, _ := newTestFS(4)
	fs.Create("/f", 1, nil)
	v, _ := fs.Open("/f")
	v.Unref()
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	v.Ref()
}

func TestLRURecycling(t *testing.T) {
	fs, stats := newTestFS(3)
	for i := 0; i < 5; i++ {
		fs.Create(fmt.Sprintf("/f%d", i), param.PageSize, nil)
	}
	// Open and release f0, f1, f2 in order: LRU is f0.
	var vns []*Vnode
	for i := 0; i < 3; i++ {
		v, err := fs.Open(fmt.Sprintf("/f%d", i))
		if err != nil {
			t.Fatal(err)
		}
		vns = append(vns, v)
	}
	for _, v := range vns {
		v.Unref()
	}
	recycled := ""
	vns[0].OnRecycle = func(v *Vnode) { recycled = v.Name() }

	// Opening f3 must recycle f0 (the LRU victim).
	v3, err := fs.Open("/f3")
	if err != nil {
		t.Fatal(err)
	}
	if recycled != "/f0" {
		t.Fatalf("recycled %q, want /f0", recycled)
	}
	if stats.Get("vfs.recycles") != 1 {
		t.Fatalf("recycle counter = %d", stats.Get("vfs.recycles"))
	}
	if fs.vnodesInCore() != 3 {
		t.Fatalf("in-core vnodes = %d", fs.vnodesInCore())
	}
	v3.Unref()

	// f0 can be opened again afterwards; it gets a fresh vnode.
	v0, err := fs.Open("/f0")
	if err != nil {
		t.Fatal(err)
	}
	if v0 == vns[0] {
		t.Fatal("recycled vnode identity reused")
	}
	v0.Unref()
}

func TestActiveVnodesPinned(t *testing.T) {
	// Referenced vnodes must never be recycled: with all vnodes active the
	// table is full and Open fails (ENFILE).
	fs, _ := newTestFS(2)
	fs.Create("/a", 1, nil)
	fs.Create("/b", 1, nil)
	fs.Create("/c", 1, nil)
	va, _ := fs.Open("/a")
	vb, _ := fs.Open("/b")
	if _, err := fs.Open("/c"); !errors.Is(err, ErrTooMany) {
		t.Fatalf("expected ENFILE, got %v", err)
	}
	va.Unref()
	// Now /a is recyclable.
	vc, err := fs.Open("/c")
	if err != nil {
		t.Fatal(err)
	}
	vc.Unref()
	vb.Unref()
}

// TestVMCacheRefPinsVnode models BSD VM's behaviour: the VM object cache
// holds a vnode reference, so the vnode LRU is forced to pick a worse
// victim (paper §4).
func TestVMCacheRefPinsVnode(t *testing.T) {
	fs, _ := newTestFS(2)
	fs.Create("/hot", 1, nil)
	fs.Create("/cold", 1, nil)
	fs.Create("/new", 1, nil)

	hot, _ := fs.Open("/hot")
	// BSD VM's object cache keeps a ref even after the user is done.
	hot.Ref()
	hot.Unref() // user close; cache ref remains

	cold, _ := fs.Open("/cold")
	cold.Unref()

	// /hot was used longest ago but is pinned by the cache ref, so /cold
	// gets recycled instead — the "non-optimal vnode" the paper describes.
	recycledCold := false
	cold.OnRecycle = func(*Vnode) { recycledCold = true }
	vn, err := fs.Open("/new")
	if err != nil {
		t.Fatal(err)
	}
	if !recycledCold {
		t.Fatal("pinned vnode was recycled instead of the cold one")
	}
	vn.Unref()
	hot.Unref()
}

func TestReadPagesMultipage(t *testing.T) {
	fs, stats := newTestFS(4)
	fs.Create("/big", 8*param.PageSize, func(idx int, buf []byte) { buf[0] = byte(idx) })
	v, _ := fs.Open("/big")
	defer v.Unref()

	bufs := make([][]byte, 4)
	for i := range bufs {
		bufs[i] = make([]byte, param.PageSize)
	}
	before := stats.Get(sim.CtrDiskReads)
	if err := v.ReadPages(2, bufs); err != nil {
		t.Fatal(err)
	}
	if stats.Get(sim.CtrDiskReads)-before != 1 {
		t.Fatal("multi-page read issued more than one I/O")
	}
	for i, buf := range bufs {
		if buf[0] != byte(i+2) {
			t.Fatalf("page %d content = %#x", i, buf[0])
		}
	}
	if err := v.ReadPages(6, bufs); !errors.Is(err, ErrBadOffset) {
		t.Fatalf("overlong read: %v", err)
	}
}

func TestWritePageRoundTrip(t *testing.T) {
	fs, _ := newTestFS(4)
	fs.Create("/w", 2*param.PageSize, nil)
	v, _ := fs.Open("/w")
	defer v.Unref()
	out := make([]byte, param.PageSize)
	out[17] = 0x5a
	if err := v.WritePage(1, out); err != nil {
		t.Fatal(err)
	}
	in := make([]byte, param.PageSize)
	if err := v.ReadPage(1, in); err != nil {
		t.Fatal(err)
	}
	if in[17] != 0x5a {
		t.Fatal("write-back not visible")
	}
	if err := v.WritePage(5, out); !errors.Is(err, ErrBadOffset) {
		t.Fatalf("out-of-file write: %v", err)
	}
}

func TestWritePagesMultipage(t *testing.T) {
	fs, stats := newTestFS(4)
	fs.Create("/big", 8*param.PageSize, nil)
	v, _ := fs.Open("/big")
	defer v.Unref()

	bufs := make([][]byte, 4)
	for i := range bufs {
		bufs[i] = make([]byte, param.PageSize)
		bufs[i][0] = byte(0x40 + i)
	}
	before := stats.Get(sim.CtrDiskWrites)
	if err := v.WriteBlocks(2, bufs); err != nil {
		t.Fatal(err)
	}
	if stats.Get(sim.CtrDiskWrites)-before != 1 {
		t.Fatal("multi-page write issued more than one I/O")
	}
	in := make([]byte, param.PageSize)
	for i := range bufs {
		if err := v.ReadPage(2+i, in); err != nil || in[0] != byte(0x40+i) {
			t.Fatalf("page %d after the write: err=%v content=%#x", 2+i, err, in[0])
		}
	}
	if err := v.WriteBlocks(6, bufs); !errors.Is(err, ErrBadOffset) {
		t.Fatalf("overlong write: %v", err)
	}
	if err := v.ReadPage(6, in); err != nil || in[0] != 0 {
		t.Fatalf("a refused write reached the file: err=%v content=%#x", err, in[0])
	}
}

func TestZeroLengthFile(t *testing.T) {
	fs, _ := newTestFS(4)
	if err := fs.Create("/empty", 0, nil); err != nil {
		t.Fatal(err)
	}
	v, err := fs.Open("/empty")
	if err != nil {
		t.Fatal(err)
	}
	if v.size() != 0 {
		t.Fatalf("size = %d", v.size())
	}
	v.Unref()
}

func TestManyFilesDistinctExtents(t *testing.T) {
	fs, _ := newTestFS(100)
	for i := 0; i < 20; i++ {
		name := fmt.Sprintf("/d/f%02d", i)
		if err := fs.Create(name, param.PageSize, func(_ int, buf []byte) { buf[0] = byte(i) }); err != nil {
			t.Fatal(err)
		}
	}
	buf := make([]byte, param.PageSize)
	for i := 0; i < 20; i++ {
		v, err := fs.Open(fmt.Sprintf("/d/f%02d", i))
		if err != nil {
			t.Fatal(err)
		}
		if err := v.ReadPage(0, buf); err != nil {
			t.Fatal(err)
		}
		if buf[0] != byte(i) {
			t.Fatalf("file %d extent collision: %#x", i, buf[0])
		}
		v.Unref()
	}
	if fs.numFiles() != 20 {
		t.Fatalf("files = %d", fs.numFiles())
	}
}

// TestOpenRecycleReentry covers the window in which Open has recycled a
// vnode and dropped the filesystem lock to run its VM hook: whatever opens
// the same name meanwhile — the hook itself, or another goroutine — must
// leave the file with one vnode, and the table within its size.
func TestOpenRecycleReentry(t *testing.T) {
	setup := func(t *testing.T) (*FS, *Vnode) {
		fs, _ := newTestFS(1)
		for _, name := range []string{"a", "b"} {
			if err := fs.Create(name, param.PageSize, nil); err != nil {
				t.Fatal(err)
			}
		}
		a, err := fs.Open("a")
		if err != nil {
			t.Fatal(err)
		}
		a.Unref()
		return fs, a
	}
	check := func(t *testing.T, fs *FS, inner, outer *Vnode) {
		t.Helper()
		if inner != outer {
			t.Fatalf("two vnodes for one file: %v and %v", inner, outer)
		}
		if refs := outer.refCount(); refs != 2 {
			t.Fatalf("vnode holds %d refs, want 2", refs)
		}
		if n := fs.vnodesInCore(); n > fs.MaxVnodes() {
			t.Fatalf("%d vnodes in core, table holds %d", n, fs.MaxVnodes())
		}
	}

	t.Run("HookOpensSameName", func(t *testing.T) {
		fs, a := setup(t)
		var inner *Vnode
		a.SetVMObj(nil, func(*Vnode) {
			var err error
			if inner, err = fs.Open("b"); err != nil {
				t.Error(err)
			}
		})
		outer, err := fs.Open("b")
		if err != nil {
			t.Fatal(err)
		}
		check(t, fs, inner, outer)
	})

	// One goroutine's Open recycles "a" and sits in its hook while a
	// second opens "b" into the slot just freed. Run with -race.
	t.Run("ConcurrentSameName", func(t *testing.T) {
		fs, a := setup(t)
		entered, proceed := make(chan struct{}), make(chan struct{})
		a.SetVMObj(nil, func(*Vnode) {
			close(entered)
			<-proceed
		})
		type opened struct {
			v   *Vnode
			err error
		}
		first := make(chan opened, 1)
		go func() {
			v, err := fs.Open("b")
			first <- opened{v, err}
		}()
		<-entered
		second, err := fs.Open("b")
		if err != nil {
			t.Fatal(err)
		}
		close(proceed)
		got := <-first
		if got.err != nil {
			t.Fatal(got.err)
		}
		check(t, fs, second, got.v)
	})
}

// TestVnodeFreeListOrder runs a seeded sequence of opens and releases
// against a model of the linear-scan rule the free list replaced: the
// recycle victim is the unreferenced in-core vnode with the oldest
// release. Every recycle must pick the model's victim, and the table's
// counts must match the model's after every step.
func TestVnodeFreeListOrder(t *testing.T) {
	const files, maxVnodes, steps = 24, 8, 4000
	fs, _ := newTestFS(maxVnodes)
	for i := 0; i < files; i++ {
		if err := fs.Create(fmt.Sprintf("/f%d", i), param.PageSize, nil); err != nil {
			t.Fatal(err)
		}
	}
	type modelVnode struct {
		refs     int
		released int64 // sequence number of the last release
	}
	model := map[string]*modelVnode{} // the in-core vnodes
	var seq int64
	var held []*Vnode // one entry per reference the test holds
	var recycled []string
	onRecycle := func(v *Vnode) { recycled = append(recycled, v.Name()) }

	rng := rand.New(rand.NewSource(1))
	for step := 0; step < steps; step++ {
		if len(held) > 0 && (rng.Intn(2) == 0 || len(held) >= maxVnodes) {
			i := rng.Intn(len(held))
			v := held[i]
			held = append(held[:i], held[i+1:]...)
			v.Unref()
			mv := model[v.Name()]
			if mv.refs--; mv.refs == 0 {
				seq++
				mv.released = seq
			}
		} else {
			name := fmt.Sprintf("/f%d", rng.Intn(files))
			want := ""
			if _, ok := model[name]; !ok && len(model) >= maxVnodes {
				var oldest int64
				for n, mv := range model {
					if mv.refs == 0 && (want == "" || mv.released < oldest) {
						want, oldest = n, mv.released
					}
				}
			}
			recycled = recycled[:0]
			v, err := fs.Open(name)
			if want == "" && len(model) >= maxVnodes && model[name] == nil {
				if !errors.Is(err, ErrTooMany) {
					t.Fatalf("step %d: Open(%s) with every vnode held: %v, want ErrTooMany", step, name, err)
				}
				continue
			}
			if err != nil {
				t.Fatalf("step %d: Open(%s): %v", step, name, err)
			}
			switch {
			case want == "" && len(recycled) != 0:
				t.Fatalf("step %d: Open(%s) recycled %v, want none", step, name, recycled)
			case want != "" && (len(recycled) != 1 || recycled[0] != want):
				t.Fatalf("step %d: Open(%s) recycled %v, want %s", step, name, recycled, want)
			}
			if want != "" {
				delete(model, want)
			}
			mv := model[name]
			if mv == nil {
				mv = &modelVnode{}
				model[name] = mv
				v.SetVMObj(nil, onRecycle)
			}
			mv.refs++
			held = append(held, v)
		}
		free := 0
		for _, mv := range model {
			if mv.refs == 0 {
				free++
			}
		}
		if fs.vnodesInCore() != len(model) || fs.freeVnodes() != free {
			t.Fatalf("step %d: %d in core, %d free; model has %d, %d",
				step, fs.vnodesInCore(), fs.freeVnodes(), len(model), free)
		}
	}
	for _, v := range held {
		v.Unref()
	}
}
