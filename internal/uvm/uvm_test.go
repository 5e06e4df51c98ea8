package uvm

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

func newProc(t *testing.T, s *System, name string) *Process {
	t.Helper()
	p, err := s.NewProcess(name)
	if err != nil {
		t.Fatal(err)
	}
	return p.(*Process)
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

// checkIntegrity is the shared list check plus UVM's own invariant: an
// entry never overruns its amap.
func (m *vmMap) checkIntegrity() error {
	return m.Check(func(e *entry) error {
		if e.amap != nil && e.amapOff+e.Pages() > len(e.amap.anons) {
			return fmt.Errorf("uvm: entry %x-%x overruns its amap", e.Start, e.End)
		}
		return nil
	})
}

func checkMaps(t *testing.T, ps ...*Process) {
	t.Helper()
	for _, p := range ps {
		if err := p.m.checkIntegrity(); err != nil {
			t.Fatalf("map integrity (%s): %v", p.name, err)
		}
	}
}

// --- basics ---

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
	if err := p.WriteBytes(va, []byte("hello, uvm")); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 10)
	p.ReadBytes(va, got)
	if string(got) != "hello, uvm" {
		t.Fatalf("read back %q", got)
	}
	checkMaps(t, p)
}

func TestZeroFillMappingHasNullObject(t *testing.T) {
	// §5.2: "a zero-fill mapping has a null object pointer"; the amap is
	// allocated lazily on first fault.
	s, _ := bootTest(t, 256)
	p := newProc(t, s, "p")
	va, _ := p.Mmap(0, param.PageSize, param.ProtRW, vmapi.MapAnon|vmapi.MapPrivate, nil, 0)
	p.m.mu.Lock()
	e := p.m.Lookup(va)
	if e.obj != nil {
		t.Fatal("zero-fill mapping has an object")
	}
	if e.amap != nil {
		t.Fatal("amap allocated before first fault (needs-copy not deferred)")
	}
	p.m.mu.Unlock()
	p.Access(va, true)
	p.m.mu.Lock()
	if e.amap == nil {
		t.Fatal("no amap after write fault")
	}
	if e.needsCopy {
		t.Fatal("needs-copy not cleared by write fault")
	}
	p.m.mu.Unlock()
}

func TestSharedFileMappingHasNullAmap(t *testing.T) {
	// §5.2: "a shared mapping usually has a null amap pointer".
	s, m := bootTest(t, 256)
	vn := mkfile(t, m, "/f", 1, 1)
	defer vn.Unref()
	p := newProc(t, s, "p")
	va, _ := p.Mmap(0, param.PageSize, param.ProtRW, vmapi.MapShared, vn, 0)
	p.Access(va, true)
	p.m.mu.Lock()
	e := p.m.Lookup(va)
	if e.amap != nil {
		t.Fatal("shared file mapping grew an amap")
	}
	if e.obj == nil {
		t.Fatal("shared file mapping lost its object")
	}
	p.m.mu.Unlock()
}

func TestFileMappingReadsFileData(t *testing.T) {
	s, m := bootTest(t, 256)
	vn := mkfile(t, m, "/data", 3, 0x10)
	p := newProc(t, s, "p")
	va, err := p.Mmap(0, 3*param.PageSize, param.ProtRead, vmapi.MapShared, vn, 0)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4)
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

func TestSingleStepMappingProtection(t *testing.T) {
	// UVM establishes non-default protections in one step: a read-only
	// mapping must never be writable, and its cost must not exceed the
	// equivalent read-write mapping by a relock/lookup pass.
	s, m := bootTest(t, 256)
	vn := mkfile(t, m, "/1step", 1, 1)
	defer vn.Unref()
	p := newProc(t, s, "p")

	// Warm the object.
	p.Mmap(0, param.PageSize, param.ProtRW, vmapi.MapShared, vn, 0)

	t0 := m.Clock.Now()
	if _, err := p.Mmap(0, param.PageSize, param.ProtRW, vmapi.MapShared, vn, 0); err != nil {
		t.Fatal(err)
	}
	rwCost := m.Clock.Since(t0)

	t1 := m.Clock.Now()
	va, err := p.Mmap(0, param.PageSize, param.ProtRead, vmapi.MapShared, vn, 0)
	if err != nil {
		t.Fatal(err)
	}
	roCost := m.Clock.Since(t1)

	// Allow a tiny delta for the longer entry-list walk, but nothing like
	// the BSD second pass (lock + lookup + clip).
	if roCost > rwCost+rwCost/2 {
		t.Fatalf("read-only mapping cost %v vs read-write %v: smells like two-step", roCost, rwCost)
	}
	if err := p.Access(va, true); !errors.Is(err, vmapi.ErrFault) {
		t.Fatalf("write through read-only mapping: %v", err)
	}
}

func TestMunmapTwoPhase(t *testing.T) {
	s, _ := bootTest(t, 256)
	p := newProc(t, s, "p")
	va, _ := p.Mmap(0, 4*param.PageSize, param.ProtRW, vmapi.MapAnon|vmapi.MapPrivate, nil, 0)
	p.TouchRange(va, 4*param.PageSize, true)
	if err := p.Munmap(va+param.PageSize, 2*param.PageSize); err != nil {
		t.Fatal(err)
	}
	if err := p.Access(va+param.PageSize, false); !errors.Is(err, vmapi.ErrFault) {
		t.Fatalf("hole still mapped: %v", err)
	}
	if err := p.Access(va, false); err != nil {
		t.Fatal(err)
	}
	if err := p.Access(va+3*param.PageSize, false); err != nil {
		t.Fatal(err)
	}
	checkMaps(t, p)
}

// --- COW / amap semantics ---

func TestPrivateFileCOW(t *testing.T) {
	s, m := bootTest(t, 256)
	vn := mkfile(t, m, "/cow", 3, 0x40)
	p := newProc(t, s, "p")
	va, _ := p.Mmap(0, 3*param.PageSize, param.ProtRW, vmapi.MapPrivate, vn, 0)
	if err := p.WriteBytes(va+param.PageSize, []byte{0xff}); err != nil {
		t.Fatal(err)
	}
	b := make([]byte, 2)
	p.ReadBytes(va+param.PageSize, b)
	if b[0] != 0xff || b[1] != 0x41 {
		t.Fatalf("private write wrong: %#x %#x", b[0], b[1])
	}
	fb := make([]byte, param.PageSize)
	vn.ReadPage(1, fb)
	if fb[0] != 0x41 {
		t.Fatalf("private write leaked to file: %#x", fb[0])
	}
	vn.Unref()
	_ = s
}

func TestReadFaultOnPrivateAllocatesNothing(t *testing.T) {
	// Contrast with BSD VM's Table 3 anomaly: a UVM read fault on a
	// private mapping allocates neither amap nor anon.
	s, m := bootTest(t, 256)
	vn := mkfile(t, m, "/cheap", 1, 1)
	defer vn.Unref()
	p := newProc(t, s, "p")
	va, _ := p.Mmap(0, param.PageSize, param.ProtRW, vmapi.MapPrivate, vn, 0)
	amaps, anons := m.Stats.Get("uvm.amap.alloc"), m.Stats.Get("uvm.anon.alloc")
	if err := p.Access(va, false); err != nil {
		t.Fatal(err)
	}
	if m.Stats.Get("uvm.amap.alloc") != amaps || m.Stats.Get("uvm.anon.alloc") != anons {
		t.Fatal("read fault on private mapping allocated anonymous-memory structures")
	}
	p.m.mu.Lock()
	if e := p.m.Lookup(va); !e.needsCopy {
		t.Fatal("needs-copy cleared by a read fault")
	}
	p.m.mu.Unlock()
}

// TestForkCOWIsolation: after a fork neither side's writes reach the
// other, over a small dense mapping and a large sparse one (3 of 4096
// pages ever touched, so the child's amap copy is mostly empty slots),
// and exit leaves no anon behind.
func TestForkCOWIsolation(t *testing.T) {
	for _, c := range []struct {
		name  string
		pages int
		at    []int // the pages the parent writes before the fork
	}{
		{"dense", 4, []int{0}},
		{"sparse", 4096, []int{0, 2048, 4095}},
	} {
		t.Run(c.name, func(t *testing.T) {
			s, m := bootTest(t, 512)
			parent := newProc(t, s, "parent")
			va, _ := parent.Mmap(0, param.VSize(c.pages)*param.PageSize, param.ProtRW, vmapi.MapAnon|vmapi.MapPrivate, nil, 0)
			for _, pg := range c.at {
				parent.WriteBytes(va+param.VAddr(pg)*param.PageSize, []byte("parent data"))
			}

			childI, err := parent.Fork("child")
			if err != nil {
				t.Fatal(err)
			}
			child := childI.(*Process)

			b := make([]byte, 11)
			for _, pg := range c.at {
				at := va + param.VAddr(pg)*param.PageSize
				child.ReadBytes(at, b)
				if string(b) != "parent data" {
					t.Fatalf("page %d: child read %q", pg, b)
				}
				child.WriteBytes(at, []byte("child data!"))
				parent.ReadBytes(at, b)
				if string(b) != "parent data" {
					t.Fatalf("page %d: child write leaked to parent: %q", pg, b)
				}
				parent.WriteBytes(at, []byte("parent two!"))
				child.ReadBytes(at, b)
				if string(b) != "child data!" {
					t.Fatalf("page %d: parent write leaked to child: %q", pg, b)
				}
			}
			checkMaps(t, parent, child)
			child.Exit()
			parent.Exit()
			if got := m.Stats.Get("uvm.anon.live"); got != 0 {
				t.Fatalf("%d anons leaked after both exits", got)
			}
		})
	}
}

func TestFigure3Sequence(t *testing.T) {
	// Walk the exact UVM sequence of Figure 3: establish, write-fault,
	// fork + write-faults; check amap/anon shapes at each step.
	s, m := bootTest(t, 512)
	vn := mkfile(t, m, "/fig3", 3, 0x60)
	defer vn.Unref()
	parent := newProc(t, s, "parent")
	va, _ := parent.Mmap(0, 3*param.PageSize, param.ProtRW, vmapi.MapPrivate, vn, 0)

	// Establish: needs-copy, no amap.
	parent.m.mu.Lock()
	pe := parent.m.Lookup(va)
	if !pe.needsCopy || pe.amap != nil {
		t.Fatal("establish state wrong")
	}
	parent.m.mu.Unlock()

	// Write middle page: amap 1 with anon 1 in the middle slot.
	parent.WriteBytes(va+param.PageSize, []byte{1})
	parent.m.mu.Lock()
	if pe.amap == nil || pe.amap.get(pe.amapOff+1) == nil {
		t.Fatal("write fault did not install anon in middle slot")
	}
	anon1 := pe.amap.get(pe.amapOff + 1)
	if anon1.refs != 1 {
		t.Fatalf("anon1 refs = %d", anon1.refs)
	}
	if pe.amap.get(pe.amapOff) != nil || pe.amap.get(pe.amapOff+2) != nil {
		t.Fatal("untouched slots must stay empty")
	}
	parent.m.mu.Unlock()

	// Fork: both needs-copy, amap shared.
	childI, _ := parent.Fork("child")
	child := childI.(*Process)
	parent.m.mu.Lock()
	ce := child.m.Lookup(va)
	if !pe.needsCopy || !ce.needsCopy {
		t.Fatal("needs-copy not set in both after fork")
	}
	if ce.amap != pe.amap || pe.amap.refs != 2 {
		t.Fatalf("amap not shared at fork (refs=%d)", pe.amap.refs)
	}
	parent.m.mu.Unlock()

	// Parent writes middle: amap 2 allocated for the parent, anon1 stays
	// in the original amap, data copied to a fresh anon.
	parent.WriteBytes(va+param.PageSize, []byte{2})
	parent.m.mu.Lock()
	if pe.amap == ce.amap {
		t.Fatal("parent did not get its own amap")
	}
	if ce.amap.get(ce.amapOff+1) != anon1 {
		t.Fatal("anon1 left the original amap")
	}
	if anon1.refs != 1 {
		t.Fatalf("anon1 refs after parent copy = %d, want 1", anon1.refs)
	}
	pAnon := pe.amap.get(pe.amapOff + 1)
	if pAnon == anon1 || pAnon == nil {
		t.Fatal("parent's middle anon wrong")
	}
	parent.m.mu.Unlock()

	// Child writes right page: child holds the only reference to the
	// original amap, so needs-copy clears WITHOUT a new amap (Figure 3's
	// final panel) and anon 3 lands in it.
	amapsBefore := m.Stats.Get("uvm.amap.alloc")
	child.WriteBytes(va+2*param.PageSize, []byte{3})
	parent.m.mu.Lock()
	if m.Stats.Get("uvm.amap.alloc") != amapsBefore {
		t.Fatal("child allocated a new amap despite sole reference")
	}
	if ce.needsCopy {
		t.Fatal("child needs-copy not cleared")
	}
	if ce.amap.get(ce.amapOff+2) == nil {
		t.Fatal("anon 3 missing")
	}
	parent.m.mu.Unlock()

	// Data checks mirror the figure.
	b := make([]byte, 1)
	parent.ReadBytes(va+param.PageSize, b)
	if b[0] != 2 {
		t.Fatalf("parent middle = %d", b[0])
	}
	child.ReadBytes(va+param.PageSize, b)
	if b[0] != 1 {
		t.Fatalf("child middle = %d", b[0])
	}
	child.ReadBytes(va+2*param.PageSize, b)
	if b[0] != 3 {
		t.Fatalf("child right = %d", b[0])
	}
}

func TestSoleOwnerWritesInPlace(t *testing.T) {
	// §5.3: when the child (sole reference) writes, UVM writes the anon's
	// page directly — no page allocation, no copy.
	s, m := bootTest(t, 512)
	parent := newProc(t, s, "parent")
	va, _ := parent.Mmap(0, param.PageSize, param.ProtRW, vmapi.MapAnon|vmapi.MapPrivate, nil, 0)
	parent.WriteBytes(va, []byte{1})
	child, _ := parent.Fork("child")
	child.(*Process).WriteBytes(va, []byte{2}) // COW copy here (anon refs 2)

	copies := m.Stats.Get(sim.CtrPagesCopied)
	// Parent now holds sole reference to its anon after its own COW? No:
	// parent's anon still shared? After child's write the child dropped
	// its ref to anon1, so the parent is sole owner again.
	parent.WriteBytes(va, []byte{3})
	if got := m.Stats.Get(sim.CtrPagesCopied); got != copies {
		t.Fatalf("sole-owner write copied a page (%d new copies)", got-copies)
	}
	b := make([]byte, 1)
	parent.ReadBytes(va, b)
	if b[0] != 3 {
		t.Fatalf("parent = %d", b[0])
	}
	child.(*Process).ReadBytes(va, b)
	if b[0] != 2 {
		t.Fatalf("child = %d", b[0])
	}
}

func TestMinheritShare(t *testing.T) {
	s, _ := bootTest(t, 256)
	parent := newProc(t, s, "parent")
	va, _ := parent.Mmap(0, param.PageSize, param.ProtRW, vmapi.MapAnon|vmapi.MapPrivate, nil, 0)
	parent.WriteBytes(va, []byte{1})
	if err := parent.Minherit(va, param.PageSize, param.InheritShare); err != nil {
		t.Fatal(err)
	}
	child, _ := parent.Fork("child")
	// Child shares the parent's (formerly COW) anonymous memory (§5.4's
	// "child sharing a copy-on-write mapping with its parent").
	parent.WriteBytes(va, []byte{7})
	b := make([]byte, 1)
	child.(*Process).ReadBytes(va, b)
	if b[0] != 7 {
		t.Fatalf("share-inherited write not visible: %d", b[0])
	}
	child.(*Process).WriteBytes(va, []byte{9})
	parent.ReadBytes(va, b)
	if b[0] != 9 {
		t.Fatalf("share-inherited child write not visible: %d", b[0])
	}
}

func TestMinheritNone(t *testing.T) {
	s, _ := bootTest(t, 256)
	parent := newProc(t, s, "parent")
	va, _ := parent.Mmap(0, param.PageSize, param.ProtRW, vmapi.MapAnon|vmapi.MapPrivate, nil, 0)
	parent.Minherit(va, param.PageSize, param.InheritNone)
	child, _ := parent.Fork("child")
	if err := child.(*Process).Access(va, false); !errors.Is(err, vmapi.ErrFault) {
		t.Fatalf("none-inherited range mapped: %v", err)
	}
}

func TestSharedAnonAobj(t *testing.T) {
	// MAP_ANON|MAP_SHARED is backed by an aobj and survives fork sharing.
	s, _ := bootTest(t, 256)
	parent := newProc(t, s, "parent")
	va, _ := parent.Mmap(0, 2*param.PageSize, param.ProtRW, vmapi.MapAnon|vmapi.MapShared, nil, 0)
	parent.WriteBytes(va, []byte{0x11})
	child, _ := parent.Fork("child")
	b := make([]byte, 1)
	child.(*Process).ReadBytes(va, b)
	if b[0] != 0x11 {
		t.Fatalf("aobj data not shared: %d", b[0])
	}
	child.(*Process).WriteBytes(va, []byte{0x22})
	parent.ReadBytes(va, b)
	if b[0] != 0x22 {
		t.Fatalf("aobj write not shared: %d", b[0])
	}
}

// --- no swap leaks, ever ---

func TestNoSwapLeakUnderForkChurn(t *testing.T) {
	// The scenario that leaks swap under BSD VM without collapse: UVM's
	// reference counts free everything with no collapse machinery (§5.3).
	m := testMachine(96)
	s := BootConfig(m, DefaultConfig())
	testutil.SweepOnCleanup(t, s)
	p, _ := s.NewProcess("churn")
	const pages = 24
	va, _ := p.Mmap(0, pages*param.PageSize, param.ProtRW, vmapi.MapAnon|vmapi.MapPrivate, nil, 0)
	if err := p.TouchRange(va, pages*param.PageSize, true); err != nil {
		t.Fatal(err)
	}
	peak := 0
	for i := 0; i < 12; i++ {
		child, err := p.Fork(fmt.Sprintf("c%d", i))
		if err != nil {
			t.Fatal(err)
		}
		if err := p.TouchRange(va, pages*param.PageSize, true); err != nil {
			t.Fatal(err)
		}
		child.Exit()
		if got := m.Swap.SlotsInUse(); got > peak {
			peak = got
		}
	}
	// Reachable anonymous data is at most `pages` for the parent; allow
	// in-flight copies but nothing resembling linear growth (12 churns x
	// 24 pages would exceed 250 if leaking).
	if peak > pages*3 {
		t.Fatalf("swap high-water %d slots for %d live pages: leak", peak, pages)
	}
	p.Exit()
	if got := m.Swap.SlotsInUse(); got != 0 {
		t.Fatalf("swap not empty after exit: %d", got)
	}
}

// --- paging ---

func TestPageoutPageinRoundTrip(t *testing.T) {
	s, m := bootTest(t, 64)
	p := newProc(t, s, "pig")
	const pages = 128
	va, _ := p.Mmap(0, pages*param.PageSize, param.ProtRW, vmapi.MapAnon|vmapi.MapPrivate, nil, 0)
	for i := 0; i < pages; i++ {
		if err := p.WriteBytes(va+param.VAddr(i)*param.PageSize, []byte{byte(i), byte(i >> 4)}); err != nil {
			t.Fatalf("write page %d: %v", i, err)
		}
	}
	if m.Stats.Get(sim.CtrPageOuts) == 0 {
		t.Fatal("no pageout under pressure")
	}
	b := make([]byte, 2)
	for i := 0; i < pages; i++ {
		if err := p.ReadBytes(va+param.VAddr(i)*param.PageSize, b); err != nil {
			t.Fatalf("read page %d: %v", i, err)
		}
		if b[0] != byte(i) || b[1] != byte(i>>4) {
			t.Fatalf("page %d corrupted through swap: %x %x", i, b[0], b[1])
		}
	}
	_ = s
}

func TestClusteredPageoutIsFewIOs(t *testing.T) {
	// The §6 claim: UVM's pagedaemon reassigns slots and pages out in
	// large clusters — so swap I/O operations << pages paged out.
	s, m := bootTest(t, 64)
	p := newProc(t, s, "pig")
	const pages = 256
	va, _ := p.Mmap(0, pages*param.PageSize, param.ProtRW, vmapi.MapAnon|vmapi.MapPrivate, nil, 0)
	if err := p.TouchRange(va, pages*param.PageSize, true); err != nil {
		t.Fatal(err)
	}
	outs := m.Stats.Get(sim.CtrPageOuts)
	ios := m.Stats.Get(sim.CtrSwapIOs)
	if outs == 0 {
		t.Fatal("no pageouts")
	}
	if ios*8 > outs {
		t.Fatalf("pageout not clustered: %d I/Os for %d pages", ios, outs)
	}
	if m.Stats.Get("uvm.pdaemon.clusters") == 0 {
		t.Fatal("no clusters formed")
	}
	_ = s
}

func TestClusteringAblation(t *testing.T) {
	// With clustering disabled the same workload must issue roughly one
	// I/O per page — and take much longer on the simulated clock.
	run := func(disable bool) (ios, outs int64, elapsed int64) {
		m := testMachine(64)
		cfg := DefaultConfig()
		cfg.DisableClustering = disable
		s := BootConfig(m, cfg)
		testutil.SweepOnCleanup(t, s)
		p, _ := s.NewProcess("pig")
		const pages = 256
		va, _ := p.Mmap(0, pages*param.PageSize, param.ProtRW, vmapi.MapAnon|vmapi.MapPrivate, nil, 0)
		t0 := m.Clock.Now()
		if err := p.TouchRange(va, pages*param.PageSize, true); err != nil {
			panic(err)
		}
		return m.Stats.Get(sim.CtrSwapIOs), m.Stats.Get(sim.CtrPageOuts), int64(m.Clock.Since(t0))
	}
	iosOn, outsOn, timeOn := run(false)
	iosOff, outsOff, timeOff := run(true)
	if outsOn == 0 || outsOff == 0 {
		t.Fatal("no pageout in one of the runs")
	}
	if iosOff < outsOff {
		t.Fatalf("unclustered run: %d I/Os < %d pageouts?", iosOff, outsOff)
	}
	if iosOn*4 > iosOff {
		t.Fatalf("clustering saved too little: %d vs %d I/Os", iosOn, iosOff)
	}
	if timeOn*2 > timeOff {
		t.Fatalf("clustered time %d should be far below unclustered %d", timeOn, timeOff)
	}
}

// --- lookahead (Table 2 mechanism) ---

func TestFaultLookaheadMapsNeighbours(t *testing.T) {
	s, m := bootTest(t, 256)
	vn := mkfile(t, m, "/text", 16, 0)
	defer vn.Unref()

	// Warm the object's pages via one process.
	warm := newProc(t, s, "warm")
	wva, _ := warm.Mmap(0, 16*param.PageSize, param.ProtRead, vmapi.MapShared, vn, 0)
	warm.TouchRange(wva, 16*param.PageSize, false)

	// A second process touching sequentially should fault far fewer than
	// 16 times: each fault maps up to 4 ahead + 3 behind resident pages.
	p := newProc(t, s, "p")
	va, _ := p.Mmap(0, 16*param.PageSize, param.ProtRead, vmapi.MapShared, vn, 0)
	faults0 := m.Stats.Get(sim.CtrFaults)
	p.TouchRange(va, 16*param.PageSize, false)
	faults := m.Stats.Get(sim.CtrFaults) - faults0
	if faults > 5 {
		t.Fatalf("%d faults for 16 resident pages; lookahead broken", faults)
	}
	if m.Stats.Get("uvm.lookahead.mapped") == 0 {
		t.Fatal("no neighbours mapped")
	}
}

func TestLookaheadRespectsAdvice(t *testing.T) {
	s, m := bootTest(t, 256)
	vn := mkfile(t, m, "/rand", 16, 0)
	defer vn.Unref()
	warm := newProc(t, s, "warm")
	wva, _ := warm.Mmap(0, 16*param.PageSize, param.ProtRead, vmapi.MapShared, vn, 0)
	warm.TouchRange(wva, 16*param.PageSize, false)

	p := newProc(t, s, "p")
	va, _ := p.Mmap(0, 16*param.PageSize, param.ProtRead, vmapi.MapShared, vn, 0)
	p.Madvise(va, 16*param.PageSize, param.AdviceRandom)
	faults0 := m.Stats.Get(sim.CtrFaults)
	p.TouchRange(va, 16*param.PageSize, false)
	faults := m.Stats.Get(sim.CtrFaults) - faults0
	if faults != 16 {
		t.Fatalf("random advice should disable lookahead: %d faults", faults)
	}
}

func TestLookaheadDoesNotPageIn(t *testing.T) {
	// "This mechanism only works for resident pages": cold pages must not
	// be read from disk by lookahead.
	s, m := bootTest(t, 256)
	vn := mkfile(t, m, "/cold", 16, 0)
	defer vn.Unref()
	p := newProc(t, s, "p")
	va, _ := p.Mmap(0, 16*param.PageSize, param.ProtRead, vmapi.MapShared, vn, 0)
	reads0 := m.Stats.Get(sim.CtrDiskReads)
	p.Access(va, false)
	if got := m.Stats.Get(sim.CtrDiskReads) - reads0; got != 1 {
		t.Fatalf("one cold fault caused %d disk reads; lookahead must not page in", got)
	}
	_ = s
}

// --- wiring (§3.2) ---

func TestSysctlDoesNotFragmentMap(t *testing.T) {
	s, _ := bootTest(t, 256)
	p := newProc(t, s, "p")
	va, _ := p.Mmap(0, 8*param.PageSize, param.ProtRW, vmapi.MapAnon|vmapi.MapPrivate, nil, 0)
	p.Access(va, true)
	base := p.MapEntryCount()
	if err := p.Sysctl(va+3*param.PageSize, param.PageSize); err != nil {
		t.Fatal(err)
	}
	if got := p.MapEntryCount(); got != base {
		t.Fatalf("sysctl changed UVM map entries: %d -> %d", base, got)
	}
	checkMaps(t, p)
}

func TestPhysioDoesNotFragmentMap(t *testing.T) {
	s, _ := bootTest(t, 256)
	p := newProc(t, s, "p")
	va, _ := p.Mmap(0, 8*param.PageSize, param.ProtRW, vmapi.MapAnon|vmapi.MapPrivate, nil, 0)
	p.Access(va, true)
	base := p.MapEntryCount()
	if err := p.Physio(va+2*param.PageSize, 2*param.PageSize); err != nil {
		t.Fatal(err)
	}
	if got := p.MapEntryCount(); got != base {
		t.Fatalf("physio changed UVM map entries: %d -> %d", base, got)
	}
}

func TestMlockStillFragments(t *testing.T) {
	// mlock is the one path where even UVM must store wiring in the map.
	s, _ := bootTest(t, 256)
	p := newProc(t, s, "p")
	va, _ := p.Mmap(0, 8*param.PageSize, param.ProtRW, vmapi.MapAnon|vmapi.MapPrivate, nil, 0)
	p.Access(va, true)
	base := p.MapEntryCount()
	if err := p.Mlock(va+2*param.PageSize, 2*param.PageSize); err != nil {
		t.Fatal(err)
	}
	if got := p.MapEntryCount(); got != base+2 {
		t.Fatalf("mlock entries = %d, want %d", got, base+2)
	}
	checkMaps(t, p)
}

func TestUserStructureUsesNoKernelEntries(t *testing.T) {
	s, _ := bootTest(t, 256)
	before := s.KernelMapEntries()
	p := newProc(t, s, "p")
	if got := s.KernelMapEntries(); got != before {
		t.Fatalf("process creation consumed %d kernel entries, want 0", got-before)
	}
	if p.uareaWired == 0 {
		t.Fatal("uarea wiring not recorded in proc structure")
	}
	p.Exit()
}

func TestPTPagesTrackedInPmapOnly(t *testing.T) {
	s, _ := bootTest(t, 256)
	p := newProc(t, s, "p")
	va1, _ := p.Mmap(0x0000_2000, param.PageSize, param.ProtRW,
		vmapi.MapAnon|vmapi.MapPrivate|vmapi.MapFixed, nil, 0)
	va2, _ := p.Mmap(0x4000_0000, param.PageSize, param.ProtRW,
		vmapi.MapAnon|vmapi.MapPrivate|vmapi.MapFixed, nil, 0)
	base := p.MapEntryCount()
	p.Access(va1, true)
	p.Access(va2, true)
	if got := p.MapEntryCount(); got != base {
		t.Fatalf("PT allocation changed map entries under UVM: %d -> %d", base, got)
	}
	if p.pm.PTPages() != 2 {
		t.Fatalf("pmap PT pages = %d, want 2", p.pm.PTPages())
	}
}

func TestKernelAllocCoalesces(t *testing.T) {
	s, _ := bootTest(t, 256)
	before := s.KernelMapEntries()
	for i := 0; i < 10; i++ {
		if _, err := s.KernelAlloc(4, param.ProtRW); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.KernelMapEntries(); got != before {
		t.Fatalf("10 adjacent kernel allocations added %d entries, want 0 (merge)", got-before)
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
	hog := newProc(t, s, "hog")
	hva, _ := hog.Mmap(0, 100*param.PageSize, param.ProtRW, vmapi.MapAnon|vmapi.MapPrivate, nil, 0)
	if err := hog.TouchRange(hva, 100*param.PageSize, true); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, ok := p.pm.Lookup(va + param.VAddr(i)*param.PageSize); !ok {
			t.Fatalf("wired page %d evicted", i)
		}
	}
}

// --- vnode-embedded objects & the single cache (§4) ---

func TestVnodeObjectPersistsAcrossUnmap(t *testing.T) {
	s, m := bootTest(t, 512)
	vn := mkfile(t, m, "/persist", 4, 0x33)
	p := newProc(t, s, "p")
	va, _ := p.Mmap(0, 4*param.PageSize, param.ProtRead, vmapi.MapShared, vn, 0)
	p.TouchRange(va, 4*param.PageSize, false)
	p.Munmap(va, 4*param.PageSize)
	vn.Unref() // vnode now unreferenced, on the FS free list, pages attached

	// Reopen + remap: zero disk reads.
	vn2, _ := m.FS.Open("/persist")
	reads := m.Stats.Get(sim.CtrDiskReads)
	va2, _ := p.Mmap(0, 4*param.PageSize, param.ProtRead, vmapi.MapShared, vn2, 0)
	if err := p.TouchRange(va2, 4*param.PageSize, false); err != nil {
		t.Fatal(err)
	}
	if got := m.Stats.Get(sim.CtrDiskReads); got != reads {
		t.Fatalf("remap after vnode-cache hit read disk %d times", got-reads)
	}
	vn2.Unref()
	_ = s
}

func TestVnodeRecycleTerminatesObject(t *testing.T) {
	// When the vnode cache recycles a vnode, the hook must free the VM
	// pages; reopening then reads from disk.
	m := vmapi.NewMachine(vmapi.MachineConfig{
		RAMPages: 512, SwapPages: 512, FSPages: 4096, MaxVnodes: 3,
	})
	s := BootConfig(m, DefaultConfig())
	testutil.SweepOnCleanup(t, s)
	p, _ := s.NewProcess("p")

	use := func(name string) {
		vn, err := m.FS.Open(name)
		if err != nil {
			t.Fatal(err)
		}
		va, _ := p.Mmap(0, param.PageSize, param.ProtRead, vmapi.MapShared, vn, 0)
		if err := p.(*Process).TouchRange(va, param.PageSize, false); err != nil {
			t.Fatal(err)
		}
		p.Munmap(va, param.PageSize)
		vn.Unref()
	}
	for i := 0; i < 5; i++ {
		name := fmt.Sprintf("/r%d", i)
		m.FS.Create(name, param.PageSize, func(_ int, b []byte) { b[0] = byte(i) })
		use(name)
	}
	if m.Stats.Get("uvm.uobj.vnode.recycled") == 0 {
		t.Fatal("no vnode recycle reached the VM hook")
	}
	free := m.Mem.FreePages()
	if free == 0 {
		t.Fatal("no free pages at all?")
	}
	// /r0 was recycled; touching it again must hit the disk.
	reads := m.Stats.Get(sim.CtrDiskReads)
	use("/r0")
	if m.Stats.Get(sim.CtrDiskReads) == reads {
		t.Fatal("recycled file's pages still resident")
	}
}

// --- device pager ---

func TestDevicePager(t *testing.T) {
	s, _ := bootTest(t, 256)
	rom, err := s.newDeviceObject(2, func(idx int, buf []byte) { buf[0] = 0xd0 + byte(idx) })
	if err != nil {
		t.Fatal(err)
	}
	p := newProc(t, s, "p")
	p.m.lock()
	va, _ := p.m.FindSpace(0, 2*param.PageSize)
	e := s.allocEntry(p.m)
	e.Start, e.End = va, va+2*param.PageSize
	e.obj = rom
	e.prot, e.maxProt = param.ProtRead, param.ProtRX
	p.m.Insert(e)
	p.m.unlock()

	b := make([]byte, 1)
	for i := 0; i < 2; i++ {
		if err := p.ReadBytes(va+param.VAddr(i)*param.PageSize, b); err != nil {
			t.Fatal(err)
		}
		if b[0] != 0xd0+byte(i) {
			t.Fatalf("ROM page %d = %#x", i, b[0])
		}
	}
	// ROM pages are wired: pressure cannot evict them.
	hog := newProc(t, s, "hog")
	hva, _ := hog.Mmap(0, 200*param.PageSize, param.ProtRW, vmapi.MapAnon|vmapi.MapPrivate, nil, 0)
	hog.TouchRange(hva, 200*param.PageSize, true)
	if err := p.Access(va, false); err != nil {
		t.Fatal("ROM page unavailable after pressure")
	}
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

	anons := m.Stats.Get("uvm.anon.live")
	if anons == 0 {
		t.Fatal("no live anons before exit")
	}
	p.Exit()
	if got := m.Stats.Get("uvm.anon.live"); got != 0 {
		t.Fatalf("%d anons leaked at exit", got)
	}
	if got := m.Stats.Get("uvm.amap.live"); got != 0 {
		t.Fatalf("%d amaps leaked at exit", got)
	}
	if got := m.Swap.SlotsInUse(); got != 0 {
		t.Fatalf("%d swap slots leaked at exit", got)
	}
	if err := p.Access(va, false); !errors.Is(err, vmapi.ErrExited) {
		t.Fatalf("access after exit: %v", err)
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
		t.Fatalf("msync missed the file: %#x", fb[0])
	}
	vn.Unref()
	_ = s
}

// --- randomized integrity + leak property ---

func TestMapIntegrityAndLeaksUnderRandomOps(t *testing.T) {
	s, m := bootTest(t, 512)
	p := newProc(t, s, "fuzz")
	rng := sim.NewRNG(19990606)
	var regions []struct {
		va param.VAddr
		sz param.VSize
	}
	for step := 0; step < 300; step++ {
		switch rng.Intn(7) {
		case 0, 1:
			sz := param.VSize(1+rng.Intn(8)) * param.PageSize
			if va, err := p.Mmap(0, sz, param.ProtRW, vmapi.MapAnon|vmapi.MapPrivate, nil, 0); err == nil {
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
				p.Mprotect(r.va, r.sz, param.ProtRead)
				p.Mprotect(r.va, r.sz, param.ProtRW)
			}
		case 5:
			if len(regions) > 0 {
				r := regions[rng.Intn(len(regions))]
				p.Mlock(r.va, param.PageSize)
				p.Munlock(r.va, param.PageSize)
			}
		case 6:
			if len(regions) > 0 {
				r := regions[rng.Intn(len(regions))]
				p.Sysctl(r.va, param.PageSize)
			}
		}
		p.m.mu.Lock()
		err := p.m.checkIntegrity()
		p.m.mu.Unlock()
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
	p.Exit()
	if got := m.Stats.Get("uvm.anon.live"); got != 0 {
		t.Fatalf("anon leak after fuzz: %d", got)
	}
	if got := m.Swap.SlotsInUse(); got != 0 {
		t.Fatalf("swap leak after fuzz: %d", got)
	}
}
