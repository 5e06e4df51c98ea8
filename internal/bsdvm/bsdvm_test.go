package bsdvm

import (
	"errors"
	"fmt"
	"testing"

	"uvm/internal/param"
	"uvm/internal/sim"
	"uvm/internal/vfs"
	"uvm/internal/vmapi"
	"uvm/internal/vmapi/testutil"
)

// testMachine boots a small machine suitable for unit tests.
func testMachine(ramPages int) *vmapi.Machine {
	return vmapi.NewMachine(vmapi.MachineConfig{
		RAMPages:  ramPages,
		SwapPages: int64(ramPages) * 4,
		FSPages:   4096,
		MaxVnodes: 50,
	})
}

func bootTest(t *testing.T, ramPages int) (*System, *vmapi.Machine) {
	t.Helper()
	m := testMachine(ramPages)
	s := BootConfig(m, DefaultConfig())
	testutil.SweepOnCleanup(t, s)
	return s, m
}

func newProc(t *testing.T, s *System, name string) *process {
	t.Helper()
	p, err := s.NewProcess(name)
	if err != nil {
		t.Fatal(err)
	}
	return p.(*process)
}

func mkfile(t *testing.T, m *vmapi.Machine, name string, pages int, fill byte) *vfs.Vnode {
	t.Helper()
	err := m.FS.Create(name, pages*param.PageSize, func(idx int, buf []byte) {
		for i := range buf {
			buf[i] = fill + byte(idx)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	vn, err := m.FS.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	return vn
}

func checkMaps(t *testing.T, ps ...*process) {
	t.Helper()
	for _, p := range ps {
		if err := p.m.Check(nil); err != nil {
			t.Fatalf("map integrity (%s): %v", p.name, err)
		}
	}
}

// --- basic mapping and access ---

func TestAnonZeroFill(t *testing.T) {
	s, _ := bootTest(t, 256)
	p := newProc(t, s, "p")
	va, err := p.Mmap(0, 4*param.PageSize, param.ProtRW, vmapi.MapAnon|vmapi.MapPrivate, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, param.PageSize)
	if err := p.ReadBytes(va+2*param.PageSize, buf); err != nil {
		t.Fatal(err)
	}
	for i, b := range buf {
		if b != 0 {
			t.Fatalf("zero-fill byte %d = %#x", i, b)
		}
	}
	// Write and read back.
	if err := p.WriteBytes(va, []byte("hello, vm")); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 9)
	if err := p.ReadBytes(va, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != "hello, vm" {
		t.Fatalf("read back %q", got)
	}
	checkMaps(t, p)
}

func TestFileMappingReadsFileData(t *testing.T) {
	s, m := bootTest(t, 256)
	vn := mkfile(t, m, "/data", 3, 0x10)
	p := newProc(t, s, "p")
	va, err := p.Mmap(0, 3*param.PageSize, param.ProtRead, vmapi.MapShared, vn, 0)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 8)
	for idx := 0; idx < 3; idx++ {
		if err := p.ReadBytes(va+param.VAddr(idx)*param.PageSize, buf); err != nil {
			t.Fatal(err)
		}
		if buf[0] != 0x10+byte(idx) {
			t.Fatalf("page %d = %#x", idx, buf[0])
		}
	}
	vn.Unref()
}

func TestFileMappingAtOffset(t *testing.T) {
	s, m := bootTest(t, 256)
	vn := mkfile(t, m, "/off", 4, 0x20)
	p := newProc(t, s, "p")
	va, err := p.Mmap(0, 2*param.PageSize, param.ProtRead, vmapi.MapShared, vn, 2*param.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1)
	if err := p.ReadBytes(va, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 0x22 {
		t.Fatalf("offset mapping read %#x, want 0x22", buf[0])
	}
	vn.Unref()
}

func TestProtectionFault(t *testing.T) {
	s, m := bootTest(t, 256)
	vn := mkfile(t, m, "/ro", 1, 1)
	p := newProc(t, s, "p")
	va, err := p.Mmap(0, param.PageSize, param.ProtRead, vmapi.MapShared, vn, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Access(va, false); err != nil {
		t.Fatal(err)
	}
	if err := p.Access(va, true); !errors.Is(err, vmapi.ErrFault) {
		t.Fatalf("write to read-only mapping: %v", err)
	}
	vn.Unref()
}

func TestUnmappedAccessFaults(t *testing.T) {
	s, _ := bootTest(t, 256)
	p := newProc(t, s, "p")
	if err := p.Access(0x7000_0000, false); !errors.Is(err, vmapi.ErrFault) {
		t.Fatalf("unmapped access: %v", err)
	}
}

func TestMunmap(t *testing.T) {
	s, _ := bootTest(t, 256)
	p := newProc(t, s, "p")
	va, _ := p.Mmap(0, 4*param.PageSize, param.ProtRW, vmapi.MapAnon|vmapi.MapPrivate, nil, 0)
	if err := p.TouchRange(va, 4*param.PageSize, true); err != nil {
		t.Fatal(err)
	}
	// Unmap the middle two pages: the entry is clipped.
	before := p.MapEntryCount()
	if err := p.Munmap(va+param.PageSize, 2*param.PageSize); err != nil {
		t.Fatal(err)
	}
	if p.MapEntryCount() != before+1 { // one entry became two
		t.Fatalf("entries after hole punch = %d, want %d", p.MapEntryCount(), before+1)
	}
	if err := p.Access(va+param.PageSize, false); !errors.Is(err, vmapi.ErrFault) {
		t.Fatalf("access to unmapped hole: %v", err)
	}
	if err := p.Access(va, false); err != nil {
		t.Fatalf("surviving head page: %v", err)
	}
	if err := p.Access(va+3*param.PageSize, false); err != nil {
		t.Fatalf("surviving tail page: %v", err)
	}
	checkMaps(t, p)
}

func TestMmapFixedReplaces(t *testing.T) {
	s, _ := bootTest(t, 256)
	p := newProc(t, s, "p")
	va, _ := p.Mmap(0x4000_0000, 2*param.PageSize, param.ProtRW,
		vmapi.MapAnon|vmapi.MapPrivate|vmapi.MapFixed, nil, 0)
	if va != 0x4000_0000 {
		t.Fatalf("fixed mapping at %#x", va)
	}
	p.WriteBytes(va, []byte{0xaa})
	// Map over it.
	if _, err := p.Mmap(va, 2*param.PageSize, param.ProtRW,
		vmapi.MapAnon|vmapi.MapPrivate|vmapi.MapFixed, nil, 0); err != nil {
		t.Fatal(err)
	}
	b := make([]byte, 1)
	p.ReadBytes(va, b)
	if b[0] != 0 {
		t.Fatalf("replacement mapping sees old data %#x", b[0])
	}
	checkMaps(t, p)
}

func TestMmapValidation(t *testing.T) {
	s, m := bootTest(t, 256)
	vn := mkfile(t, m, "/v", 1, 1)
	defer vn.Unref()
	p := newProc(t, s, "p")
	cases := []struct {
		flags vmapi.MapFlags
		vn    *vfs.Vnode
		len   param.VSize
	}{
		{vmapi.MapAnon | vmapi.MapPrivate, vn, param.PageSize}, // anon with vnode
		{vmapi.MapPrivate, nil, param.PageSize},                // file without vnode
		{vmapi.MapPrivate | vmapi.MapShared, vn, param.PageSize},
		{vmapi.MapAnon | vmapi.MapPrivate, nil, 0}, // zero length
	}
	for i, c := range cases {
		if _, err := p.Mmap(0, c.len, param.ProtRW, c.flags, c.vn, 0); !errors.Is(err, vmapi.ErrInvalid) {
			t.Errorf("case %d: err = %v, want ErrInvalid", i, err)
		}
	}
}

// --- two-step mapping behaviour ---

func TestTwoStepMappingCosts(t *testing.T) {
	// A read-only mapping must cost measurably more than a read-write one
	// under BSD VM, because it takes the extra protect pass.
	s, m := bootTest(t, 256)
	vn := mkfile(t, m, "/2step", 1, 1)
	defer vn.Unref()
	p := newProc(t, s, "p")

	// Warm the vm_object/pager allocation so both measurements take the
	// established-object path.
	if _, err := p.Mmap(0, param.PageSize, param.ProtRW, vmapi.MapShared, vn, 0); err != nil {
		t.Fatal(err)
	}

	t0 := m.Clock.Now()
	if _, err := p.Mmap(0, param.PageSize, param.ProtRW, vmapi.MapShared, vn, 0); err != nil {
		t.Fatal(err)
	}
	rwCost := m.Clock.Since(t0)

	t1 := m.Clock.Now()
	if _, err := p.Mmap(0, param.PageSize, param.ProtRead, vmapi.MapShared, vn, 0); err != nil {
		t.Fatal(err)
	}
	roCost := m.Clock.Since(t1)
	if roCost <= rwCost {
		t.Fatalf("read-only mapping (%v) should cost more than default read-write (%v): two-step", roCost, rwCost)
	}
}

// --- copy-on-write and shadow chains ---

func TestPrivateFileCOW(t *testing.T) {
	s, m := bootTest(t, 256)
	vn := mkfile(t, m, "/cow", 3, 0x40)
	p := newProc(t, s, "p")
	va, err := p.Mmap(0, 3*param.PageSize, param.ProtRW, vmapi.MapPrivate, vn, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Write the middle page.
	if err := p.WriteBytes(va+param.PageSize, []byte{0xff}); err != nil {
		t.Fatal(err)
	}
	b := make([]byte, 2)
	p.ReadBytes(va+param.PageSize, b)
	if b[0] != 0xff || b[1] != 0x41 {
		t.Fatalf("private write not visible correctly: %#x %#x", b[0], b[1])
	}
	// The file itself is untouched.
	fb := make([]byte, param.PageSize)
	if err := vn.ReadPage(1, fb); err != nil {
		t.Fatal(err)
	}
	if fb[0] != 0x41 {
		t.Fatalf("private write leaked to the file: %#x", fb[0])
	}
	// A shadow object was allocated.
	if m.Stats.Get("bsdvm.shadow.alloc") == 0 {
		t.Fatal("no shadow object allocated for COW write")
	}
	vn.Unref()
}

func TestReadFaultOnPrivateAllocatesShadow(t *testing.T) {
	// The Table 3 anomaly: BSD VM allocates a shadow object even on a
	// read fault of a private mapping.
	s, m := bootTest(t, 256)
	vn := mkfile(t, m, "/anomaly", 1, 1)
	defer vn.Unref()
	p := newProc(t, s, "p")
	va, _ := p.Mmap(0, param.PageSize, param.ProtRW, vmapi.MapPrivate, vn, 0)
	before := m.Stats.Get("bsdvm.shadow.alloc")
	if err := p.Access(va, false); err != nil { // read only
		t.Fatal(err)
	}
	if m.Stats.Get("bsdvm.shadow.alloc") != before+1 {
		t.Fatal("read fault on private mapping should (wastefully) allocate a shadow object")
	}
}

func TestForkCOWIsolation(t *testing.T) {
	s, _ := bootTest(t, 512)
	parent := newProc(t, s, "parent")
	va, _ := parent.Mmap(0, 4*param.PageSize, param.ProtRW, vmapi.MapAnon|vmapi.MapPrivate, nil, 0)
	parent.WriteBytes(va, []byte("parent data"))

	childI, err := parent.Fork("child")
	if err != nil {
		t.Fatal(err)
	}
	child := childI.(*process)

	// Child sees the parent's data.
	b := make([]byte, 11)
	if err := child.ReadBytes(va, b); err != nil {
		t.Fatal(err)
	}
	if string(b) != "parent data" {
		t.Fatalf("child read %q", b)
	}
	// Child writes; parent must not see it.
	child.WriteBytes(va, []byte("child data!"))
	parent.ReadBytes(va, b)
	if string(b) != "parent data" {
		t.Fatalf("child write leaked to parent: %q", b)
	}
	// Parent writes; child keeps its copy.
	parent.WriteBytes(va, []byte("parent two!"))
	child.ReadBytes(va, b)
	if string(b) != "child data!" {
		t.Fatalf("parent write leaked to child: %q", b)
	}
	checkMaps(t, parent, child)
}

func TestForkShareInheritance(t *testing.T) {
	s, _ := bootTest(t, 256)
	parent := newProc(t, s, "parent")
	va, _ := parent.Mmap(0, param.PageSize, param.ProtRW, vmapi.MapAnon|vmapi.MapPrivate, nil, 0)
	if err := parent.Minherit(va, param.PageSize, param.InheritShare); err != nil {
		t.Fatal(err)
	}
	child, _ := parent.Fork("child")
	parent.WriteBytes(va, []byte{0x77})
	b := make([]byte, 1)
	child.ReadBytes(va, b)
	if b[0] != 0x77 {
		t.Fatalf("shared inheritance: child sees %#x", b[0])
	}
	child.WriteBytes(va, []byte{0x88})
	parent.ReadBytes(va, b)
	if b[0] != 0x88 {
		t.Fatalf("shared inheritance: parent sees %#x", b[0])
	}
}

func TestForkNoneInheritance(t *testing.T) {
	s, _ := bootTest(t, 256)
	parent := newProc(t, s, "parent")
	va, _ := parent.Mmap(0, param.PageSize, param.ProtRW, vmapi.MapAnon|vmapi.MapPrivate, nil, 0)
	parent.Minherit(va, param.PageSize, param.InheritNone)
	child, _ := parent.Fork("child")
	if err := child.Access(va, false); !errors.Is(err, vmapi.ErrFault) {
		t.Fatalf("none-inherited range mapped in child: %v", err)
	}
}

func TestShadowChainGrowth(t *testing.T) {
	// Figure 3's third column: fork + write faults grow the chain.
	s, m := bootTest(t, 512)
	vn := mkfile(t, m, "/chain", 3, 0x30)
	defer vn.Unref()
	parent := newProc(t, s, "parent")
	va, _ := parent.Mmap(0, 3*param.PageSize, param.ProtRW, vmapi.MapPrivate, vn, 0)

	// First write fault: shadow 1.
	parent.WriteBytes(va+param.PageSize, []byte{1})
	parent.sys.big.Lock()
	e := parent.m.Lookup(va)
	objs1, _, _ := chainStats(e)
	parent.sys.big.Unlock()
	if objs1 != 2 { // shadow1 -> file object
		t.Fatalf("after first write: %d chain objects, want 2", objs1)
	}

	childI, _ := parent.Fork("child")
	child := childI.(*process)
	// Parent writes middle again -> shadow 2 on the parent side.
	parent.WriteBytes(va+param.PageSize, []byte{2})
	// Child writes right page -> shadow 3 on the child side.
	child.WriteBytes(va+2*param.PageSize, []byte{3})

	parent.sys.big.Lock()
	pObjs, _, _ := chainStats(parent.m.Lookup(va))
	cObjs, _, _ := chainStats(child.m.Lookup(va))
	parent.sys.big.Unlock()
	// Collapse may shorten chains opportunistically, but both must still
	// be chains (>= 2 objects) and isolation must hold.
	if pObjs < 2 || cObjs < 2 {
		t.Fatalf("chains too short: parent=%d child=%d", pObjs, cObjs)
	}

	b := make([]byte, 1)
	parent.ReadBytes(va+param.PageSize, b)
	if b[0] != 2 {
		t.Fatalf("parent middle = %d", b[0])
	}
	child.ReadBytes(va+param.PageSize, b)
	if b[0] != 1 {
		t.Fatalf("child middle = %d, want pre-fork value 1", b[0])
	}
	child.ReadBytes(va+2*param.PageSize, b)
	if b[0] != 3 {
		t.Fatalf("child right = %d", b[0])
	}
	parent.ReadBytes(va+2*param.PageSize, b)
	if b[0] != 0x32 {
		t.Fatalf("parent right = %#x, want file data 0x32", b[0])
	}
}

func TestCollapseReclaimsRedundantPages(t *testing.T) {
	s, m := bootTest(t, 512)
	parent := newProc(t, s, "parent")
	const pages = 8
	va, _ := parent.Mmap(0, pages*param.PageSize, param.ProtRW, vmapi.MapAnon|vmapi.MapPrivate, nil, 0)
	parent.TouchRange(va, pages*param.PageSize, true)

	// Fork/exit churn with parent rewrites: chains form and become
	// collapsible when the child exits.
	for i := 0; i < 5; i++ {
		child, err := parent.Fork(fmt.Sprintf("c%d", i))
		if err != nil {
			t.Fatal(err)
		}
		if err := parent.TouchRange(va, pages*param.PageSize, true); err != nil {
			t.Fatal(err)
		}
		child.Exit()
	}
	if m.Stats.Get("bsdvm.collapse.merged") == 0 {
		t.Fatal("no chain collapse happened")
	}
	// With collapse running, the chain stays bounded.
	s.big.Lock()
	objs, total, reachable := chainStats(parent.m.Lookup(va))
	s.big.Unlock()
	if objs > 3 {
		t.Fatalf("chain grew to %d objects despite collapse", objs)
	}
	if total-reachable > pages {
		t.Fatalf("too many redundant pages survive collapse: %d", total-reachable)
	}
	checkMaps(t, parent)
}

func TestSwapLeakWithoutCollapse(t *testing.T) {
	// §5.3: without collapse, chains retain inaccessible pages and swap
	// fills with redundant data — the swap memory leak deadlock.
	run := func(disableCollapse bool) (slotsInUse int, deadlocked bool) {
		m := testMachine(96) // small RAM forces pageout
		cfg := DefaultConfig()
		cfg.DisableCollapse = disableCollapse
		s := BootConfig(m, cfg)
		testutil.SweepOnCleanup(t, s)
		p, _ := s.NewProcess("leaker")
		const pages = 24
		va, _ := p.Mmap(0, pages*param.PageSize, param.ProtRW, vmapi.MapAnon|vmapi.MapPrivate, nil, 0)
		if err := p.TouchRange(va, pages*param.PageSize, true); err != nil {
			return m.Swap.SlotsInUse(), true
		}
		for i := 0; i < 12; i++ {
			child, err := p.Fork(fmt.Sprintf("c%d", i))
			if err != nil {
				return m.Swap.SlotsInUse(), true
			}
			if err := p.TouchRange(va, pages*param.PageSize, true); err != nil {
				return m.Swap.SlotsInUse(), true
			}
			child.Exit()
		}
		return m.Swap.SlotsInUse(), false
	}
	leakSlots, leakDead := run(true)
	okSlots, okDead := run(false)
	if okDead {
		t.Fatal("collapse-enabled run deadlocked")
	}
	if !leakDead && leakSlots <= okSlots*2 {
		t.Fatalf("no leak visible: collapse-off swap=%d, collapse-on swap=%d", leakSlots, okSlots)
	}
}

// --- object cache ---

func TestObjectCacheKeepsPagesResident(t *testing.T) {
	s, m := bootTest(t, 512)
	vn := mkfile(t, m, "/cached", 4, 0x11)
	p := newProc(t, s, "p")
	va, _ := p.Mmap(0, 4*param.PageSize, param.ProtRead, vmapi.MapShared, vn, 0)
	p.TouchRange(va, 4*param.PageSize, false)
	p.Munmap(va, 4*param.PageSize)
	vn.Unref()
	if s.objCacheSize() != 1 {
		t.Fatalf("object cache size = %d after unmap", s.objCacheSize())
	}

	// Remap: no disk reads needed, pages persisted.
	vn2, _ := m.FS.Open("/cached")
	reads := m.Stats.Get(sim.CtrDiskReads)
	va2, _ := p.Mmap(0, 4*param.PageSize, param.ProtRead, vmapi.MapShared, vn2, 0)
	if err := p.TouchRange(va2, 4*param.PageSize, false); err != nil {
		t.Fatal(err)
	}
	if got := m.Stats.Get(sim.CtrDiskReads); got != reads {
		t.Fatalf("remap of cached object read the disk %d times", got-reads)
	}
	vn2.Unref()
}

func TestObjectCacheLimitEviction(t *testing.T) {
	// Beyond the cache limit, objects are discarded even though memory is
	// available — the Figure 2 behaviour.
	m := testMachine(2048)
	cfg := DefaultConfig()
	cfg.ObjCacheLimit = 5
	s := BootConfig(m, cfg)
	testutil.SweepOnCleanup(t, s)
	p, _ := s.NewProcess("websrv")

	touch := func(name string) {
		vn, err := m.FS.Open(name)
		if err != nil {
			t.Fatal(err)
		}
		va, err := p.Mmap(0, param.PageSize, param.ProtRead, vmapi.MapShared, vn, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.TouchRange(va, param.PageSize, false); err != nil {
			t.Fatal(err)
		}
		p.Munmap(va, param.PageSize)
		vn.Unref()
	}
	for i := 0; i < 10; i++ {
		name := fmt.Sprintf("/f%d", i)
		m.FS.Create(name, param.PageSize, func(_ int, b []byte) { b[0] = byte(i) })
		touch(name)
	}
	if s.objCacheSize() != 5 {
		t.Fatalf("cache size = %d, want limit 5", s.objCacheSize())
	}
	if m.Stats.Get("bsdvm.objcache.evictions") != 5 {
		t.Fatalf("evictions = %d", m.Stats.Get("bsdvm.objcache.evictions"))
	}

	// Touching an evicted file re-reads the disk; a cached one does not.
	reads := m.Stats.Get(sim.CtrDiskReads)
	touch("/f0") // long evicted
	if m.Stats.Get(sim.CtrDiskReads) == reads {
		t.Fatal("evicted object's pages still resident?")
	}
	reads = m.Stats.Get(sim.CtrDiskReads)
	touch("/f9") // recent; still cached (f9 was re-cached after /f0 touch)
	if m.Stats.Get(sim.CtrDiskReads) != reads {
		t.Fatal("cached object hit the disk")
	}
}

// --- paging ---

func TestPageoutAndPageinRoundTrip(t *testing.T) {
	// Allocate twice RAM, touch with identifiable data, then read it all
	// back: every page must survive the trip through swap.
	s, m := bootTest(t, 64) // 256 KB RAM
	p := newProc(t, s, "pig")
	const pages = 128
	va, err := p.Mmap(0, pages*param.PageSize, param.ProtRW, vmapi.MapAnon|vmapi.MapPrivate, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < pages; i++ {
		if err := p.WriteBytes(va+param.VAddr(i)*param.PageSize, []byte{byte(i), byte(i >> 4)}); err != nil {
			t.Fatalf("write page %d: %v", i, err)
		}
	}
	if m.Stats.Get(sim.CtrPageOuts) == 0 {
		t.Fatal("no pageout happened with allocation 2x RAM")
	}
	b := make([]byte, 2)
	for i := 0; i < pages; i++ {
		if err := p.ReadBytes(va+param.VAddr(i)*param.PageSize, b); err != nil {
			t.Fatalf("read page %d: %v", i, err)
		}
		if b[0] != byte(i) || b[1] != byte(i>>4) {
			t.Fatalf("page %d corrupted through swap: %#x %#x", i, b[0], b[1])
		}
	}
	if m.Stats.Get(sim.CtrPageIns) == 0 {
		t.Fatal("no pageins on read-back")
	}
}

func TestWiredPagesSurvivePressure(t *testing.T) {
	s, _ := bootTest(t, 64)
	p := newProc(t, s, "p")
	va, _ := p.Mmap(0, 4*param.PageSize, param.ProtRW, vmapi.MapAnon|vmapi.MapPrivate, nil, 0)
	p.TouchRange(va, 4*param.PageSize, true)
	if err := p.Mlock(va, 4*param.PageSize); err != nil {
		t.Fatal(err)
	}
	// Apply pressure.
	hog := newProc(t, s, "hog")
	hva, _ := hog.Mmap(0, 100*param.PageSize, param.ProtRW, vmapi.MapAnon|vmapi.MapPrivate, nil, 0)
	if err := hog.TouchRange(hva, 100*param.PageSize, true); err != nil {
		t.Fatal(err)
	}
	// The wired pages must still be resident (no fault on access).
	for i := 0; i < 4; i++ {
		if _, ok := p.pm.Lookup(va + param.VAddr(i)*param.PageSize); !ok {
			t.Fatalf("wired page %d was evicted", i)
		}
	}
}

// --- wiring & fragmentation (Table 1 mechanics) ---

func TestMlockFragmentsEntry(t *testing.T) {
	s, _ := bootTest(t, 256)
	p := newProc(t, s, "p")
	va, _ := p.Mmap(0, 8*param.PageSize, param.ProtRW, vmapi.MapAnon|vmapi.MapPrivate, nil, 0)
	// Fault one page first so the page-table placeholder entry exists
	// before the baseline is taken.
	p.Access(va, true)
	base := p.MapEntryCount()
	if err := p.Mlock(va+2*param.PageSize, 2*param.PageSize); err != nil {
		t.Fatal(err)
	}
	if got := p.MapEntryCount(); got != base+2 {
		t.Fatalf("entries after interior mlock = %d, want %d (entry split in three)", got, base+2)
	}
	// Unlock does NOT repair the fragmentation.
	p.Munlock(va+2*param.PageSize, 2*param.PageSize)
	if got := p.MapEntryCount(); got != base+2 {
		t.Fatalf("fragmentation repaired unexpectedly: %d", got)
	}
	checkMaps(t, p)
}

func TestSysctlFragmentsMapPermanently(t *testing.T) {
	s, _ := bootTest(t, 256)
	p := newProc(t, s, "p")
	va, _ := p.Mmap(0, 8*param.PageSize, param.ProtRW, vmapi.MapAnon|vmapi.MapPrivate, nil, 0)
	base := p.MapEntryCount()
	if err := p.Sysctl(va+3*param.PageSize, param.PageSize); err != nil {
		t.Fatal(err)
	}
	if got := p.MapEntryCount(); got <= base {
		t.Fatalf("sysctl did not fragment the BSD map: %d entries", got)
	}
	checkMaps(t, p)
}

func TestUserStructureUsesKernelEntries(t *testing.T) {
	s, _ := bootTest(t, 256)
	before := s.KernelMapEntries()
	p := newProc(t, s, "p")
	after := s.KernelMapEntries()
	if after-before != 2 {
		t.Fatalf("process creation added %d kernel entries, want 2 (user structure + kernel stack)", after-before)
	}
	p.Exit()
	if got := s.KernelMapEntries(); got != before {
		t.Fatalf("exit left %d kernel entries, want %d", got, before)
	}
}

func TestPageTablePlaceholderEntries(t *testing.T) {
	s, _ := bootTest(t, 256)
	p := newProc(t, s, "p")
	// Map and touch pages in two distinct 4 MB regions.
	va1, _ := p.Mmap(0x0000_2000, param.PageSize, param.ProtRW,
		vmapi.MapAnon|vmapi.MapPrivate|vmapi.MapFixed, nil, 0)
	va2, _ := p.Mmap(0x4000_0000, param.PageSize, param.ProtRW,
		vmapi.MapAnon|vmapi.MapPrivate|vmapi.MapFixed, nil, 0)
	base := p.MapEntryCount()
	p.Access(va1, true)
	if got := p.MapEntryCount(); got != base+1 {
		t.Fatalf("first PT region: %d entries, want %d", got, base+1)
	}
	p.Access(va2, true)
	if got := p.MapEntryCount(); got != base+2 {
		t.Fatalf("second PT region: %d entries, want %d", got, base+2)
	}
	checkMaps(t, p)
}

// --- lifecycle ---

func TestExitFreesEverything(t *testing.T) {
	s, m := bootTest(t, 256)
	vn := mkfile(t, m, "/exit", 2, 1)
	p := newProc(t, s, "p")
	va, _ := p.Mmap(0, 2*param.PageSize, param.ProtRW, vmapi.MapPrivate, vn, 0)
	p.TouchRange(va, 2*param.PageSize, true)
	av, _ := p.Mmap(0, 8*param.PageSize, param.ProtRW, vmapi.MapAnon|vmapi.MapPrivate, nil, 0)
	p.TouchRange(av, 8*param.PageSize, true)
	vn.Unref()

	free := m.Mem.FreePages()
	p.Exit()
	if !p.Exited() {
		t.Fatal("not marked exited")
	}
	if got := m.Mem.FreePages(); got <= free {
		t.Fatalf("exit freed no pages: %d -> %d", free, got)
	}
	if err := p.Access(va, false); !errors.Is(err, vmapi.ErrExited) {
		t.Fatalf("access after exit: %v", err)
	}
	if _, err := p.Mmap(0, param.PageSize, param.ProtRW, vmapi.MapAnon|vmapi.MapPrivate, nil, 0); !errors.Is(err, vmapi.ErrExited) {
		t.Fatalf("mmap after exit: %v", err)
	}
	// Anonymous memory with no other references leaves no swap behind.
	if got := m.Swap.SlotsInUse(); got != 0 {
		t.Fatalf("exit leaked %d swap slots", got)
	}
}

func TestMsyncWritesBack(t *testing.T) {
	s, m := bootTest(t, 256)
	vn := mkfile(t, m, "/sync", 1, 0)
	p := newProc(t, s, "p")
	va, _ := p.Mmap(0, param.PageSize, param.ProtRW, vmapi.MapShared, vn, 0)
	p.WriteBytes(va, []byte{0xcd})
	if err := p.Msync(va, param.PageSize); err != nil {
		t.Fatal(err)
	}
	fb := make([]byte, param.PageSize)
	vn.ReadPage(0, fb)
	if fb[0] != 0xcd {
		t.Fatalf("msync did not reach the file: %#x", fb[0])
	}
	vn.Unref()
}

func TestSharedFileWriteVisibleAcrossProcesses(t *testing.T) {
	s, m := bootTest(t, 256)
	vn := mkfile(t, m, "/shm", 1, 0)
	p1 := newProc(t, s, "p1")
	p2 := newProc(t, s, "p2")
	va1, _ := p1.Mmap(0, param.PageSize, param.ProtRW, vmapi.MapShared, vn, 0)
	va2, _ := p2.Mmap(0, param.PageSize, param.ProtRW, vmapi.MapShared, vn, 0)
	p1.WriteBytes(va1, []byte{0x42})
	b := make([]byte, 1)
	p2.ReadBytes(va2, b)
	if b[0] != 0x42 {
		t.Fatalf("shared file write not visible: %#x", b[0])
	}
	vn.Unref()
}

// --- randomized map integrity ---

func TestMapIntegrityUnderRandomOps(t *testing.T) {
	s, _ := bootTest(t, 512)
	p := newProc(t, s, "fuzz")
	rng := sim.NewRNG(20260612)
	var regions []struct {
		va param.VAddr
		sz param.VSize
	}
	for step := 0; step < 300; step++ {
		switch rng.Intn(6) {
		case 0, 1:
			sz := param.VSize(1+rng.Intn(8)) * param.PageSize
			va, err := p.Mmap(0, sz, param.ProtRW, vmapi.MapAnon|vmapi.MapPrivate, nil, 0)
			if err == nil {
				regions = append(regions, struct {
					va param.VAddr
					sz param.VSize
				}{va, sz})
			}
		case 2:
			if len(regions) > 0 {
				r := regions[rng.Intn(len(regions))]
				off := param.VSize(rng.Intn(int(r.sz/param.PageSize))) * param.PageSize
				p.Access(r.va+param.VAddr(off), rng.Bool(1, 2))
			}
		case 3:
			if len(regions) > 0 {
				i := rng.Intn(len(regions))
				r := regions[i]
				p.Munmap(r.va, r.sz)
				regions = append(regions[:i], regions[i+1:]...)
			}
		case 4:
			if len(regions) > 0 {
				r := regions[rng.Intn(len(regions))]
				p.Mprotect(r.va, r.sz/2+param.PageSize, param.ProtRead)
				p.Mprotect(r.va, r.sz, param.ProtRW)
			}
		case 5:
			if len(regions) > 0 {
				r := regions[rng.Intn(len(regions))]
				p.Mlock(r.va, param.PageSize)
				p.Munlock(r.va, param.PageSize)
			}
		}
		s.big.Lock()
		err := p.m.Check(nil)
		s.big.Unlock()
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
}
