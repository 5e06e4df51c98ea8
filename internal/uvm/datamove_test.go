package uvm

import (
	"errors"
	"testing"

	"uvm/internal/param"
	"uvm/internal/sim"
	"uvm/internal/vmapi"
)

// --- page loanout (§7) ---

func TestLoanoutSharesPagesZeroCopy(t *testing.T) {
	s, m := bootTest(t, 256)
	p := newProc(t, s, "sender")
	va, _ := p.Mmap(0, 4*param.PageSize, param.ProtRW, vmapi.MapAnon|vmapi.MapPrivate, nil, 0)
	p.WriteBytes(va, []byte("loan me"))

	copies := m.Stats.Get(sim.CtrPagesCopied)
	pages, err := p.Loanout(va, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(pages) != 4 {
		t.Fatalf("loaned %d pages", len(pages))
	}
	if m.Stats.Get(sim.CtrPagesCopied) != copies {
		t.Fatal("loanout copied data")
	}
	// The kernel sees the process' bytes directly.
	if string(pages[0].Data()[:7]) != "loan me" {
		t.Fatalf("kernel view = %q", pages[0].Data()[:7])
	}
	for _, pg := range pages {
		if !pg.Loaned() {
			t.Fatal("page not marked loaned")
		}
	}
	p.LoanReturn(pages)
	for _, pg := range pages {
		if pg.Loaned() {
			t.Fatal("loan not returned")
		}
	}
}

func TestLoanPreservesCOWOnOwnerWrite(t *testing.T) {
	// The owner writing a loaned page must not change the borrower's
	// view (§7: "gracefully preserves copy-on-write in the presence of
	// page faults").
	s, _ := bootTest(t, 256)
	p := newProc(t, s, "sender")
	va, _ := p.Mmap(0, param.PageSize, param.ProtRW, vmapi.MapAnon|vmapi.MapPrivate, nil, 0)
	p.WriteBytes(va, []byte{0xaa})

	pages, err := p.Loanout(va, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Owner writes during the loan: COW must kick in.
	if err := p.WriteBytes(va, []byte{0xbb}); err != nil {
		t.Fatal(err)
	}
	if pages[0].Data()[0] != 0xaa {
		t.Fatalf("borrower's view changed to %#x", pages[0].Data()[0])
	}
	b := make([]byte, 1)
	p.ReadBytes(va, b)
	if b[0] != 0xbb {
		t.Fatalf("owner's write lost: %#x", b[0])
	}
	p.LoanReturn(pages)
}

func TestLoanedPagesSurvivePageout(t *testing.T) {
	s, _ := bootTest(t, 64)
	p := newProc(t, s, "sender")
	va, _ := p.Mmap(0, 2*param.PageSize, param.ProtRW, vmapi.MapAnon|vmapi.MapPrivate, nil, 0)
	p.WriteBytes(va, []byte{0x5e})
	pages, err := p.Loanout(va, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Heavy pressure: the pagedaemon must skip loaned pages.
	hog := newProc(t, s, "hog")
	hva, _ := hog.Mmap(0, 120*param.PageSize, param.ProtRW, vmapi.MapAnon|vmapi.MapPrivate, nil, 0)
	if err := hog.TouchRange(hva, 120*param.PageSize, true); err != nil {
		t.Fatal(err)
	}
	if pages[0].Data()[0] != 0x5e {
		t.Fatalf("loaned page disturbed by pageout: %#x", pages[0].Data()[0])
	}
	p.LoanReturn(pages)
}

func TestLoanSurvivesOwnerExit(t *testing.T) {
	s, m := bootTest(t, 256)
	p := newProc(t, s, "sender")
	va, _ := p.Mmap(0, param.PageSize, param.ProtRW, vmapi.MapAnon|vmapi.MapPrivate, nil, 0)
	p.WriteBytes(va, []byte{0x77})
	pages, err := p.Loanout(va, 1)
	if err != nil {
		t.Fatal(err)
	}
	free := m.Mem.FreePages()
	p.Exit()
	// The frame is orphaned, not freed: the borrower still reads it.
	if pages[0].Data()[0] != 0x77 {
		t.Fatalf("orphaned loan corrupted: %#x", pages[0].Data()[0])
	}
	if pages[0].Owner() != nil {
		t.Fatal("owner not cleared at exit")
	}
	// Returning the loan finally frees the frame.
	p.LoanReturn(pages)
	if got := m.Mem.FreePages(); got <= free {
		t.Fatal("orphaned frame never freed")
	}
}

func TestLoanoutOfFileMapping(t *testing.T) {
	// §7: "the loaned page can come from a memory-mapped file".
	s, m := bootTest(t, 256)
	vn := mkfile(t, m, "/loanfile", 2, 0x10)
	defer vn.Unref()
	p := newProc(t, s, "p")
	va, _ := p.Mmap(0, 2*param.PageSize, param.ProtRW, vmapi.MapShared, vn, 0)
	pages, err := p.Loanout(va, 2)
	if err != nil {
		t.Fatal(err)
	}
	if pages[0].Data()[0] != 0x10 || pages[1].Data()[0] != 0x11 {
		t.Fatalf("loaned file pages wrong: %#x %#x", pages[0].Data()[0], pages[1].Data()[0])
	}
	// Writing the shared mapping during the loan gives the object a fresh
	// page; the borrowers keep the old bytes.
	if err := p.WriteBytes(va, []byte{0xee}); err != nil {
		t.Fatal(err)
	}
	if pages[0].Data()[0] != 0x10 {
		t.Fatalf("borrower saw shared-file write: %#x", pages[0].Data()[0])
	}
	b := make([]byte, 1)
	p.ReadBytes(va, b)
	if b[0] != 0xee {
		t.Fatalf("owner write lost: %#x", b[0])
	}
	p.LoanReturn(pages)
}

func TestLoanoutValidation(t *testing.T) {
	s, _ := bootTest(t, 256)
	p := newProc(t, s, "p")
	if _, err := p.Loanout(0x1001, 1); !errors.Is(err, vmapi.ErrInvalid) {
		t.Fatalf("unaligned loan: %v", err)
	}
	if _, err := p.Loanout(0x1000, 0); !errors.Is(err, vmapi.ErrInvalid) {
		t.Fatalf("zero-page loan: %v", err)
	}
	if _, err := p.Loanout(0x7000_0000, 1); !errors.Is(err, vmapi.ErrFault) {
		t.Fatalf("loan of unmapped range: %v", err)
	}
}

// --- page transfer (§7) ---

func TestTransferKernelPages(t *testing.T) {
	s, m := bootTest(t, 256)
	pages, err := s.AllocKernelPages(3, func(idx int, buf []byte) { buf[0] = 0xc0 + byte(idx) })
	if err != nil {
		t.Fatal(err)
	}
	p := newProc(t, s, "recv")
	copies := m.Stats.Get(sim.CtrPagesCopied)
	va, err := p.Transfer(pages, param.ProtRW)
	if err != nil {
		t.Fatal(err)
	}
	if m.Stats.Get(sim.CtrPagesCopied) != copies {
		t.Fatal("transfer copied data")
	}
	b := make([]byte, 1)
	for i := 0; i < 3; i++ {
		if err := p.ReadBytes(va+param.VAddr(i)*param.PageSize, b); err != nil {
			t.Fatal(err)
		}
		if b[0] != 0xc0+byte(i) {
			t.Fatalf("page %d = %#x", i, b[0])
		}
	}
	// Transferred memory is ordinary anonymous memory: writable, COW on
	// fork, freed at exit.
	if err := p.WriteBytes(va, []byte{0x11}); err != nil {
		t.Fatal(err)
	}
	p.Exit()
	if got := m.Stats.Get("uvm.anon.live"); got != 0 {
		t.Fatalf("transferred anons leaked: %d", got)
	}
}

func TestLoanThenTransferPipeline(t *testing.T) {
	// The IPC pipeline the paper sketches: sender loans pages, receiver
	// gets them transferred — zero copies; a write on either side
	// resolves through COW.
	s, m := bootTest(t, 256)
	sender := newProc(t, s, "sender")
	va, _ := sender.Mmap(0, 2*param.PageSize, param.ProtRW, vmapi.MapAnon|vmapi.MapPrivate, nil, 0)
	sender.WriteBytes(va, []byte("ipc message"))

	loaned, err := sender.Loanout(va, 2)
	if err != nil {
		t.Fatal(err)
	}
	recv := newProc(t, s, "recv")
	copies := m.Stats.Get(sim.CtrPagesCopied)
	rva, err := recv.Transfer(loaned, param.ProtRW)
	if err != nil {
		t.Fatal(err)
	}
	if m.Stats.Get(sim.CtrPagesCopied) != copies {
		t.Fatal("pipeline copied data")
	}
	b := make([]byte, 11)
	if err := recv.ReadBytes(rva, b); err != nil {
		t.Fatal(err)
	}
	if string(b) != "ipc message" {
		t.Fatalf("receiver read %q", b)
	}
	// Receiver writes: COW (the sender keeps its bytes).
	recv.WriteBytes(rva, []byte("REWRITTEN!!"))
	sender.ReadBytes(va, b)
	if string(b) != "ipc message" {
		t.Fatalf("receiver write leaked to sender: %q", b)
	}
	// Sender writes: COW the other way.
	sender.WriteBytes(va+param.PageSize, []byte{0x9a})
	b2 := make([]byte, 1)
	recv.ReadBytes(rva+param.PageSize, b2)
	if b2[0] != 0 {
		t.Fatalf("sender write leaked to receiver: %#x", b2[0])
	}
	checkMaps(t, sender, recv)
}

// --- map entry passing (§7) ---

func TestMapEntryPassingShare(t *testing.T) {
	s, _ := bootTest(t, 256)
	a := newProc(t, s, "a")
	b := newProc(t, s, "b")
	va, _ := a.Mmap(0, 4*param.PageSize, param.ProtRW, vmapi.MapAnon|vmapi.MapPrivate, nil, 0)
	a.WriteBytes(va, []byte("shared range"))

	tok, err := a.Export(va, 4*param.PageSize, ExportShare)
	if err != nil {
		t.Fatal(err)
	}
	vb, err := b.Import(tok)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 12)
	b.ReadBytes(vb, buf)
	if string(buf) != "shared range" {
		t.Fatalf("imported read %q", buf)
	}
	// Stores are mutually visible.
	b.WriteBytes(vb, []byte("B WAS HERE!!"))
	a.ReadBytes(va, buf)
	if string(buf) != "B WAS HERE!!" {
		t.Fatalf("share semantics broken: %q", buf)
	}
	checkMaps(t, a, b)
}

func TestMapEntryPassingCopy(t *testing.T) {
	s, _ := bootTest(t, 256)
	a := newProc(t, s, "a")
	b := newProc(t, s, "b")
	va, _ := a.Mmap(0, 2*param.PageSize, param.ProtRW, vmapi.MapAnon|vmapi.MapPrivate, nil, 0)
	a.WriteBytes(va, []byte("copy range"))

	tok, err := a.Export(va, 2*param.PageSize, ExportCopy)
	if err != nil {
		t.Fatal(err)
	}
	vb, err := b.Import(tok)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 10)
	b.ReadBytes(vb, buf)
	if string(buf) != "copy range" {
		t.Fatalf("imported read %q", buf)
	}
	b.WriteBytes(vb, []byte("b-private!"))
	a.ReadBytes(va, buf)
	if string(buf) != "copy range" {
		t.Fatalf("copy semantics broken (b leaked to a): %q", buf)
	}
	a.WriteBytes(va, []byte("a-private!"))
	b.ReadBytes(vb, buf)
	if string(buf) != "b-private!" {
		t.Fatalf("copy semantics broken (a leaked to b): %q", buf)
	}
	checkMaps(t, a, b)
}

func TestMapEntryPassingDonate(t *testing.T) {
	// "Map entry passing can be used as a replacement for pipes when
	// transferring large-sized data."
	s, _ := bootTest(t, 256)
	a := newProc(t, s, "a")
	b := newProc(t, s, "b")
	va, _ := a.Mmap(0, 8*param.PageSize, param.ProtRW, vmapi.MapAnon|vmapi.MapPrivate, nil, 0)
	a.WriteBytes(va, []byte("moving out"))

	tok, err := a.Export(va, 8*param.PageSize, ExportDonate)
	if err != nil {
		t.Fatal(err)
	}
	// Gone from the donor.
	if err := a.Access(va, false); !errors.Is(err, vmapi.ErrFault) {
		t.Fatalf("donated range still mapped in donor: %v", err)
	}
	vb, err := b.Import(tok)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 10)
	b.ReadBytes(vb, buf)
	if string(buf) != "moving out" {
		t.Fatalf("donated data lost: %q", buf)
	}
	checkMaps(t, a, b)
}

func TestMapEntryPassingCheaperThanCopyPerPage(t *testing.T) {
	// §7: per-page cost of map entry passing is lower than loanout or
	// data copying for large ranges.
	s, m := bootTest(t, 1024)
	a := newProc(t, s, "a")
	b := newProc(t, s, "b")
	const pages = 256
	va, _ := a.Mmap(0, pages*param.PageSize, param.ProtRW, vmapi.MapAnon|vmapi.MapPrivate, nil, 0)
	a.TouchRange(va, pages*param.PageSize, true)

	t0 := m.Clock.Now()
	tok, err := a.Export(va, pages*param.PageSize, ExportShare)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Import(tok); err != nil {
		t.Fatal(err)
	}
	mepCost := m.Clock.Since(t0)

	// Compare against copying the data through a pipe-style double copy.
	t1 := m.Clock.Now()
	buf := make([]byte, pages*param.PageSize)
	if err := a.ReadBytes(va, buf); err != nil {
		t.Fatal(err)
	}
	vb2, _ := b.Mmap(0, pages*param.PageSize, param.ProtRW, vmapi.MapAnon|vmapi.MapPrivate, nil, 0)
	if err := b.WriteBytes(vb2, buf); err != nil {
		t.Fatal(err)
	}
	copyCost := m.Clock.Since(t1)

	if mepCost*10 > copyCost {
		t.Fatalf("map entry passing (%v) should be >10x cheaper than copying (%v) at %d pages",
			mepCost, copyCost, pages)
	}
}

func TestTokenReleaseAndSingleUse(t *testing.T) {
	s, m := bootTest(t, 256)
	a := newProc(t, s, "a")
	b := newProc(t, s, "b")
	va, _ := a.Mmap(0, param.PageSize, param.ProtRW, vmapi.MapAnon|vmapi.MapPrivate, nil, 0)
	a.WriteBytes(va, []byte{1})

	tok, _ := a.Export(va, param.PageSize, ExportShare)
	tok.Release()
	if _, err := b.Import(tok); !errors.Is(err, vmapi.ErrInvalid) {
		t.Fatalf("released token imported: %v", err)
	}

	tok2, _ := a.Export(va, param.PageSize, ExportShare)
	if _, err := b.Import(tok2); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Import(tok2); !errors.Is(err, vmapi.ErrInvalid) {
		t.Fatalf("token reused: %v", err)
	}
	// Donate + release must not leak the anons.
	tok3, _ := a.Export(va, param.PageSize, ExportDonate)
	tok3.Release()
	a.Exit()
	b.Exit()
	if got := m.Stats.Get("uvm.anon.live"); got != 0 {
		t.Fatalf("anon leak through tokens: %d", got)
	}
}
