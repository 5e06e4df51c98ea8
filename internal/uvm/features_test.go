package uvm

import (
	"errors"
	"testing"
	"testing/quick"

	"uvm/internal/param"
	"uvm/internal/vmapi"
	"uvm/internal/vmapi/testutil"
)

// --- vfork (§5.3 footnote) ---

func TestVforkSharesAddressSpace(t *testing.T) {
	s, _ := bootTest(t, 256)
	parent := newProc(t, s, "parent")
	va, _ := parent.Mmap(0, param.PageSize, param.ProtRW, vmapi.MapAnon|vmapi.MapPrivate, nil, 0)
	parent.WriteBytes(va, []byte{1})

	childI, err := parent.Vfork("child")
	if err != nil {
		t.Fatal(err)
	}
	child := childI.(*Process)
	// No COW: the child writes straight into the parent's memory.
	child.WriteBytes(va, []byte{2})
	b := make([]byte, 1)
	parent.ReadBytes(va, b)
	if b[0] != 2 {
		t.Fatalf("vfork child write not visible to parent: %d", b[0])
	}
	// Child exit leaves the shared space intact.
	child.Exit()
	if err := parent.Access(va, true); err != nil {
		t.Fatalf("parent space damaged by vfork child exit: %v", err)
	}
	checkMaps(t, parent)
}

func TestVforkCostIndependentOfMemory(t *testing.T) {
	s, m := bootTest(t, 8192)
	parent := newProc(t, s, "parent")
	const pages = 1024 // 4 MB
	va, _ := parent.Mmap(0, pages*param.PageSize, param.ProtRW, vmapi.MapAnon|vmapi.MapPrivate, nil, 0)
	parent.TouchRange(va, pages*param.PageSize, true)

	t0 := m.Clock.Now()
	vc, err := parent.Vfork("vchild")
	if err != nil {
		t.Fatal(err)
	}
	vforkCost := m.Clock.Since(t0)
	vc.Exit()

	t1 := m.Clock.Now()
	fc, err := parent.Fork("fchild")
	if err != nil {
		t.Fatal(err)
	}
	forkCost := m.Clock.Since(t1)
	fc.Exit()

	// Fork pays per-entry copies and per-page write-protection; vfork
	// pays neither.
	if vforkCost*10 > forkCost {
		t.Fatalf("vfork (%v) should be >10x cheaper than fork (%v) with 4MB resident",
			vforkCost, forkCost)
	}
}

func TestVforkOfVforkRejected(t *testing.T) {
	s, _ := bootTest(t, 256)
	parent := newProc(t, s, "parent")
	child, err := parent.Vfork("child")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := child.(*Process).Vfork("grandchild"); !errors.Is(err, vmapi.ErrInvalid) {
		t.Fatalf("nested vfork: %v", err)
	}
	child.Exit()
}

// --- hybrid amap (§5.3 suggestion) ---

func TestHybridAmapSemanticsMatchArray(t *testing.T) {
	// Property: any sequence of set/get operations behaves identically on
	// the array and hybrid implementations.
	type op struct {
		Slot  uint16
		Clear bool
	}
	prop := func(nRaw uint8, ops []op) bool {
		n := int(nRaw)%2000 + 1
		arr := &arrayAmap{anons: make([]*anon, n)}
		hyb := newHybridImpl(n)
		anons := map[uint16]*anon{}
		for _, o := range ops {
			slot := int(o.Slot) % n
			var a *anon
			if !o.Clear {
				a = anons[o.Slot]
				if a == nil {
					a = &anon{refs: 1}
					anons[o.Slot] = a
				}
			}
			arr.set(slot, a)
			hyb.set(slot, a)
		}
		if arr.nslots() != hyb.nslots() {
			return false
		}
		for i := 0; i < n; i++ {
			if arr.get(i) != hyb.get(i) {
				return false
			}
		}
		// foreach must agree on population and order.
		var aSlots, hSlots []int
		arr.foreach(func(s int, _ *anon) bool { aSlots = append(aSlots, s); return true })
		hyb.foreach(func(s int, _ *anon) bool { hSlots = append(hSlots, s); return true })
		if len(aSlots) != len(hSlots) {
			return false
		}
		for i := range aSlots {
			if aSlots[i] != hSlots[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestHybridAmapDensifies(t *testing.T) {
	hy := newHybridImpl(1024)
	if _, ok := hy.impl.(*hashAmap); !ok {
		t.Fatal("large amap should start as hash")
	}
	a := &anon{refs: 1}
	for i := 0; i < 300; i++ { // >1/4 of 1024
		hy.set(i, a)
	}
	if _, ok := hy.impl.(*arrayAmap); !ok {
		t.Fatal("dense hybrid amap should have converted to array")
	}
	for i := 0; i < 300; i++ {
		if hy.get(i) != a {
			t.Fatalf("slot %d lost across densification", i)
		}
	}
	if hy.get(500) != nil {
		t.Fatal("phantom slot after densification")
	}
}

func TestHybridAmapSmallUsesArray(t *testing.T) {
	hy := newHybridImpl(16)
	if _, ok := hy.impl.(*arrayAmap); !ok {
		t.Fatal("small amap should be an array")
	}
}

func TestSystemWithHybridAmaps(t *testing.T) {
	// Full COW behaviour must be identical under the hybrid
	// implementation: rerun the Figure 3 data checks.
	m := testMachine(2048)
	cfg := DefaultConfig()
	cfg.AmapImpl = AmapHybrid
	s := BootConfig(m, cfg)
	testutil.SweepOnCleanup(t, s)
	parent, _ := s.NewProcess("parent")
	// A large sparse mapping: only 3 of 4096 pages ever touched.
	va, _ := parent.Mmap(0, 4096*param.PageSize, param.ProtRW, vmapi.MapAnon|vmapi.MapPrivate, nil, 0)
	parent.WriteBytes(va, []byte{1})
	parent.WriteBytes(va+2048*param.PageSize, []byte{2})
	parent.WriteBytes(va+4095*param.PageSize, []byte{3})

	child, _ := parent.Fork("child")
	child.WriteBytes(va+2048*param.PageSize, []byte{9})
	b := make([]byte, 1)
	parent.ReadBytes(va+2048*param.PageSize, b)
	if b[0] != 2 {
		t.Fatalf("hybrid amap COW leak: %d", b[0])
	}
	child.ReadBytes(va, b)
	if b[0] != 1 {
		t.Fatalf("hybrid amap inheritance broken: %d", b[0])
	}
	child.Exit()
	parent.(*Process).Exit()
	if got := m.Stats.Get("uvm.anon.live"); got != 0 {
		t.Fatalf("anon leak with hybrid amaps: %d", got)
	}
}

func TestHybridAmapCheaperForSparse(t *testing.T) {
	// The §5.3 claim: array amaps charge per-slot initialisation; the
	// hybrid's hash form doesn't. Compare the first-fault cost on a large
	// sparse mapping.
	run := func(kind AmapImplKind) int64 {
		m := testMachine(2048)
		cfg := DefaultConfig()
		cfg.AmapImpl = kind
		s := BootConfig(m, cfg)
		testutil.SweepOnCleanup(t, s)
		p, _ := s.NewProcess("sparse")
		va, _ := p.Mmap(0, 8192*param.PageSize, param.ProtRW, vmapi.MapAnon|vmapi.MapPrivate, nil, 0)
		t0 := m.Clock.Now()
		p.Access(va, true) // first fault allocates the amap
		return int64(m.Clock.Since(t0))
	}
	arrayCost := run(AmapArray)
	hybridCost := run(AmapHybrid)
	if hybridCost >= arrayCost {
		t.Fatalf("hybrid first fault (%d ns) should beat array (%d ns) on an 8192-slot amap",
			hybridCost, arrayCost)
	}
}
