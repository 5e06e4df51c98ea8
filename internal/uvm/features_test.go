package uvm

import (
	"errors"
	"testing"

	"uvm/internal/param"
	"uvm/internal/vmapi"
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
