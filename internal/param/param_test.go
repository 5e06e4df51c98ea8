package param

import (
	"testing"
	"testing/quick"
)

func TestPageGeometry(t *testing.T) {
	if PageSize != 4096 {
		t.Fatalf("PageSize = %d, want 4096", PageSize)
	}
	if 1<<PageShift != PageSize {
		t.Fatalf("PageShift %d inconsistent with PageSize %d", PageShift, PageSize)
	}
	if PageMask != PageSize-1 {
		t.Fatalf("PageMask = %#x, want %#x", PageMask, PageSize-1)
	}
}

func TestTruncRound(t *testing.T) {
	cases := []struct {
		va         VAddr
		trunc, rnd VAddr
	}{
		{0, 0, 0},
		{1, 0, PageSize},
		{PageSize - 1, 0, PageSize},
		{PageSize, PageSize, PageSize},
		{PageSize + 1, PageSize, 2 * PageSize},
		{0xbfbf_dfff, 0xbfbf_d000, 0xbfbf_e000},
	}
	for _, c := range cases {
		if got := Trunc(c.va); got != c.trunc {
			t.Errorf("Trunc(%#x) = %#x, want %#x", c.va, got, c.trunc)
		}
		if got := Round(c.va); got != c.rnd {
			t.Errorf("Round(%#x) = %#x, want %#x", c.va, got, c.rnd)
		}
	}
}

func TestTruncRoundProperties(t *testing.T) {
	prop := func(raw uint32) bool {
		va := VAddr(raw)
		tr, rd := Trunc(va), Round(va)
		if !PageAligned(tr) || !PageAligned(rd) {
			return false
		}
		if tr > va || rd < va {
			return false
		}
		if rd-tr != 0 && rd-tr != PageSize {
			return false
		}
		// Idempotence.
		return Trunc(tr) == tr && Round(rd) == rd
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestSizeHelpers(t *testing.T) {
	if Pages(0) != 0 {
		t.Errorf("Pages(0) = %d", Pages(0))
	}
	if Pages(1) != 1 || Pages(PageSize) != 1 || Pages(PageSize+1) != 2 {
		t.Errorf("Pages boundary behaviour wrong: %d %d %d",
			Pages(1), Pages(PageSize), Pages(PageSize+1))
	}
	if RoundSize(3) != PageSize {
		t.Errorf("size rounding wrong")
	}
}

func TestPageOffConversion(t *testing.T) {
	prop := func(raw uint16) bool {
		idx := int(raw)
		return OffToPage(PageToOff(idx)) == idx
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestProtAllows(t *testing.T) {
	if !ProtRW.Allows(ProtRead) || !ProtRW.Allows(ProtWrite) {
		t.Errorf("ProtRW should allow read and write")
	}
	if ProtRead.Allows(ProtWrite) {
		t.Errorf("read-only must not allow write")
	}
	if !ProtNone.Allows(ProtNone) {
		t.Errorf("none allows none")
	}
	if ProtNone.Allows(ProtRead) {
		t.Errorf("none must not allow read")
	}
}

func TestProtString(t *testing.T) {
	cases := map[Prot]string{
		ProtNone:             "---",
		ProtRead:             "r--",
		ProtWrite:            "-w-",
		ProtExec:             "--x",
		ProtRW:               "rw-",
		ProtRX:               "r-x",
		ProtRWX:              "rwx",
		ProtWrite | ProtExec: "-wx",
	}
	for p, want := range cases {
		if got := p.String(); got != want {
			t.Errorf("Prot(%d).String() = %q, want %q", p, got, want)
		}
	}
}

func TestInheritAdviceStrings(t *testing.T) {
	if InheritCopy.String() != "copy" || InheritShare.String() != "share" || InheritNone.String() != "none" {
		t.Errorf("inherit strings wrong")
	}
	if AdviceNormal.String() != "normal" || AdviceRandom.String() != "random" || AdviceSequential.String() != "sequential" {
		t.Errorf("advice strings wrong")
	}
	if Inherit(9).String() == "" || Advice(9).String() == "" {
		t.Errorf("unknown values must still render")
	}
}

func TestAdviceLookahead(t *testing.T) {
	a, b := AdviceNormal.Lookahead()
	if a != 4 || b != 3 {
		t.Errorf("normal lookahead = (%d,%d), want (4,3) per paper §5.4", a, b)
	}
	a, b = AdviceRandom.Lookahead()
	if a != 0 || b != 0 {
		t.Errorf("random lookahead must be disabled, got (%d,%d)", a, b)
	}
	a, b = AdviceSequential.Lookahead()
	if a <= 4 || b != 0 {
		t.Errorf("sequential lookahead should be deeper and forward-only, got (%d,%d)", a, b)
	}
}
