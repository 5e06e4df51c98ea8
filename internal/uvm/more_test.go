package uvm

import (
	"errors"
	"sync"
	"testing"

	"uvm/internal/param"
	"uvm/internal/sim"
	"uvm/internal/vmapi"
)

// Additional coverage for UVM internals: map entry passing with file
// objects, aobj paging, partial-munmap amap behaviour, cluster limits and
// map edge cases.

func TestExportFileBackedRange(t *testing.T) { exportFileBackedRange(t, false) }

// TestExportFileBackedRangeWarmFile runs the same sequence over a file
// whose pages are all resident beforehand, so a's lookahead has mapped
// the object's page 2 by the time b's store promotes it into the amap
// they share: the promotion must take a's translation of the page it
// shadows away, or a keeps reading the file's copy.
func TestExportFileBackedRangeWarmFile(t *testing.T) { exportFileBackedRange(t, true) }

func exportFileBackedRange(t *testing.T, warm bool) {
	// Map entry passing carries the (amap, object) pair, so a private
	// file mapping with modified pages exports correctly: the importer
	// sees the modifications (share) or a COW view (copy).
	s, m := bootTest(t, 512)
	vn := mkfile(t, m, "/exp", 3, 0x30)
	defer vn.Unref()
	a := newProc(t, s, "a")
	b := newProc(t, s, "b")
	if warm {
		w := newProc(t, s, "warm")
		wa, _ := w.Mmap(0, 3*param.PageSize, param.ProtRead, vmapi.MapShared, vn, 0)
		if err := w.TouchRange(wa, 3*param.PageSize, false); err != nil {
			t.Fatal(err)
		}
	}
	va, _ := a.Mmap(0, 3*param.PageSize, param.ProtRW, vmapi.MapPrivate, vn, 0)
	a.WriteBytes(va+param.PageSize, []byte{0xEE}) // private modification

	tok, err := a.Export(va, 3*param.PageSize, ExportShare)
	if err != nil {
		t.Fatal(err)
	}
	vb, err := b.Import(tok)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1)
	// Unmodified page reads through to the file object.
	b.ReadBytes(vb, buf)
	if buf[0] != 0x30 {
		t.Fatalf("imported file page = %#x", buf[0])
	}
	// Modified page comes from the shared amap.
	b.ReadBytes(vb+param.PageSize, buf)
	if buf[0] != 0xEE {
		t.Fatalf("imported anon page = %#x", buf[0])
	}
	// Shared semantics: b's writes appear in a.
	b.WriteBytes(vb+2*param.PageSize, []byte{0x77})
	a.ReadBytes(va+2*param.PageSize, buf)
	if buf[0] != 0x77 {
		t.Fatalf("share-exported write not visible: %#x", buf[0])
	}
	checkMaps(t, a, b)
}

// TestSharedAmapCowReplaceReachesSharers: the same hole one layer up. a
// and b share an amap whose anon is also referenced by a forked child's
// amap, so b maps the anon's page read-only; a's store replaces the anon
// in the shared amap with a private copy, and b must see the replacement
// rather than keep its translation of the page that was replaced.
func TestSharedAmapCowReplaceReachesSharers(t *testing.T) {
	s, _ := bootTest(t, 512)
	a := newProc(t, s, "a")
	b := newProc(t, s, "b")
	va, _ := a.Mmap(0, param.PageSize, param.ProtRW, vmapi.MapAnon|vmapi.MapPrivate, nil, 0)
	a.WriteBytes(va, []byte{0x11})
	cp, err := a.Fork("c") // the anon now has two references
	if err != nil {
		t.Fatal(err)
	}
	c := cp.(*Process)
	tok, err := a.Export(va, param.PageSize, ExportShare)
	if err != nil {
		t.Fatal(err)
	}
	vb, err := b.Import(tok)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1)
	if b.ReadBytes(vb, buf); buf[0] != 0x11 {
		t.Fatalf("imported anon page = %#x", buf[0])
	}
	a.WriteBytes(va, []byte{0x22})
	if b.ReadBytes(vb, buf); buf[0] != 0x22 {
		t.Fatalf("store into the shared amap not visible to its other sharer: %#x", buf[0])
	}
	if c.ReadBytes(va, buf); buf[0] != 0x11 {
		t.Fatalf("forked child lost its copy-on-write view: %#x", buf[0])
	}
	checkMaps(t, a, b, c)
}

func TestExportUnmappedRange(t *testing.T) {
	s, _ := bootTest(t, 256)
	a := newProc(t, s, "a")
	if _, err := a.Export(0x5000_0000, param.PageSize, ExportShare); !errors.Is(err, vmapi.ErrFault) {
		t.Fatalf("export of nothing: %v", err)
	}
	if _, err := a.Export(0x1001, param.PageSize, ExportShare); !errors.Is(err, vmapi.ErrInvalid) {
		t.Fatalf("unaligned export: %v", err)
	}
}

func TestImportIntoWrongSystemRejected(t *testing.T) {
	s1, _ := bootTest(t, 256)
	s2, _ := bootTest(t, 256)
	a := newProc(t, s1, "a")
	foreign := newProc(t, s2, "x")
	va, _ := a.Mmap(0, param.PageSize, param.ProtRW, vmapi.MapAnon|vmapi.MapPrivate, nil, 0)
	a.WriteBytes(va, []byte{1})
	tok, _ := a.Export(va, param.PageSize, ExportShare)
	if _, err := foreign.Import(tok); !errors.Is(err, vmapi.ErrInvalid) {
		t.Fatalf("cross-system import: %v", err)
	}
	tok.Release()
}

func TestAobjPagingRoundTrip(t *testing.T) {
	// Shared anonymous memory (aobj-backed) must survive pageout/pagein
	// like amap anons, including through the clustered path.
	s, m := bootTest(t, 64)
	p := newProc(t, s, "p")
	const pages = 128
	va, _ := p.Mmap(0, pages*param.PageSize, param.ProtRW, vmapi.MapAnon|vmapi.MapShared, nil, 0)
	for i := 0; i < pages; i++ {
		if err := p.WriteBytes(va+param.VAddr(i)*param.PageSize, []byte{byte(i ^ 0x5a)}); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	if m.Stats.Get(sim.CtrPageOuts) == 0 {
		t.Fatal("no pageout")
	}
	b := make([]byte, 1)
	for i := 0; i < pages; i++ {
		if err := p.ReadBytes(va+param.VAddr(i)*param.PageSize, b); err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if b[0] != byte(i^0x5a) {
			t.Fatalf("aobj page %d corrupted: %#x", i, b[0])
		}
	}
	// Exit releases the aobj's swap.
	p.Exit()
	if got := m.Swap.SlotsInUse(); got != 0 {
		t.Fatalf("aobj swap leak: %d", got)
	}
}

func TestPartialMunmapKeepsSiblingData(t *testing.T) {
	// Clipping shares the amap between the halves; unmapping one half
	// must leave the other half's anons intact.
	s, _ := bootTest(t, 256)
	p := newProc(t, s, "p")
	va, _ := p.Mmap(0, 4*param.PageSize, param.ProtRW, vmapi.MapAnon|vmapi.MapPrivate, nil, 0)
	for i := 0; i < 4; i++ {
		p.WriteBytes(va+param.VAddr(i)*param.PageSize, []byte{byte(10 + i)})
	}
	if err := p.Munmap(va, 2*param.PageSize); err != nil {
		t.Fatal(err)
	}
	b := make([]byte, 1)
	for i := 2; i < 4; i++ {
		if err := p.ReadBytes(va+param.VAddr(i)*param.PageSize, b); err != nil {
			t.Fatalf("surviving page %d: %v", i, err)
		}
		if b[0] != byte(10+i) {
			t.Fatalf("surviving page %d = %d", i, b[0])
		}
	}
	checkMaps(t, p)
}

// TestMaxClusterRespected checks every pageout write on its own: none
// carries more than maxCluster pages, and the daemon, whose rounds aim at
// more than maxCluster pages on this machine, fills at least one.
func TestMaxClusterRespected(t *testing.T) {
	s, m := bootTest(t, 512)
	// The swap disk consults FailWrite for each block of a write command
	// before counting the command in disk.writes, so every call made for
	// one command sees the same count, and the next command a higher one.
	var mu sync.Mutex
	writes := map[int64]int{} // disk.writes before the command -> its pages
	m.SwapDisk.FailWrite = func(int64) error {
		mu.Lock()
		writes[m.Stats.Get(sim.CtrDiskWrites)]++
		mu.Unlock()
		return nil
	}
	p := newProc(t, s, "p")
	const pages = 1024 // twice RAM, all dirty
	va, _ := p.Mmap(0, pages*param.PageSize, param.ProtRW, vmapi.MapAnon|vmapi.MapPrivate, nil, 0)
	if err := p.TouchRange(va, pages*param.PageSize, true); err != nil {
		t.Fatal(err)
	}
	s.Shutdown()
	mu.Lock()
	defer mu.Unlock()
	if len(writes) == 0 {
		t.Fatal("no pageout")
	}
	longest := 0
	for _, n := range writes {
		if n > maxCluster {
			t.Errorf("one pageout write carried %d pages, cap %d", n, maxCluster)
		}
		longest = max(longest, n)
	}
	t.Logf("%d pageout writes, longest %d pages", len(writes), longest)
	if longest < maxCluster {
		t.Errorf("longest of %d pageout writes carried %d pages: no cluster reached the cap %d", len(writes), longest, maxCluster)
	}
}

func TestMprotectRespectsMaxProt(t *testing.T) {
	s, _ := bootTest(t, 256)
	p := newProc(t, s, "p")
	va, _ := p.Mmap(0, param.PageSize, param.ProtRW, vmapi.MapAnon|vmapi.MapPrivate, nil, 0)
	p.m.mu.Lock()
	e := p.m.Lookup(va)
	e.maxProt = param.ProtRW
	p.m.mu.Unlock()
	if err := p.Mprotect(va, param.PageSize, param.ProtRWX); !errors.Is(err, vmapi.ErrInvalid) {
		t.Fatalf("protection beyond maxProt allowed: %v", err)
	}
}

func TestAddressSpaceExhaustion(t *testing.T) {
	s, _ := bootTest(t, 256)
	p := newProc(t, s, "p")
	if _, err := p.Mmap(0, param.VSize(param.UserMax), param.ProtRW,
		vmapi.MapAnon|vmapi.MapPrivate, nil, 0); !errors.Is(err, vmapi.ErrNoSpace) {
		t.Fatalf("oversized mapping: %v", err)
	}
}

func TestSequentialAdviceWidensLookahead(t *testing.T) {
	s, m := bootTest(t, 512)
	vn := mkfile(t, m, "/seq", 32, 0)
	defer vn.Unref()
	warm := newProc(t, s, "warm")
	wva, _ := warm.Mmap(0, 32*param.PageSize, param.ProtRead, vmapi.MapShared, vn, 0)
	warm.TouchRange(wva, 32*param.PageSize, false)

	countFaults := func(adv param.Advice) int64 {
		p := newProc(t, s, "p")
		va, _ := p.Mmap(0, 32*param.PageSize, param.ProtRead, vmapi.MapShared, vn, 0)
		p.Madvise(va, 32*param.PageSize, adv)
		before := m.Stats.Get(sim.CtrFaults)
		p.TouchRange(va, 32*param.PageSize, false)
		faults := m.Stats.Get(sim.CtrFaults) - before
		p.Exit()
		return faults
	}
	normal := countFaults(param.AdviceNormal)
	seq := countFaults(param.AdviceSequential)
	if seq >= normal {
		t.Fatalf("sequential advice (%d faults) should beat normal (%d) on a forward sweep",
			seq, normal)
	}
}

func TestTransferEmptyRejected(t *testing.T) {
	s, _ := bootTest(t, 256)
	p := newProc(t, s, "p")
	if _, err := p.Transfer(nil, param.ProtRW); !errors.Is(err, vmapi.ErrInvalid) {
		t.Fatalf("empty transfer: %v", err)
	}
}

func TestDonatedTokenReleaseFreesAnons(t *testing.T) {
	s, m := bootTest(t, 256)
	a := newProc(t, s, "a")
	va, _ := a.Mmap(0, 2*param.PageSize, param.ProtRW, vmapi.MapAnon|vmapi.MapPrivate, nil, 0)
	a.TouchRange(va, 2*param.PageSize, true)
	live := m.Stats.Get("uvm.anon.live")
	if live == 0 {
		t.Fatal("no anons")
	}
	tok, err := a.Export(va, 2*param.PageSize, ExportDonate)
	if err != nil {
		t.Fatal(err)
	}
	tok.Release()
	if got := m.Stats.Get("uvm.anon.live"); got != 0 {
		t.Fatalf("released donated token leaked %d anons", got)
	}
}

func TestForkOfSharedFileMapping(t *testing.T) {
	// MAP_SHARED file mappings inherit shared: child writes reach the
	// object (and thus the parent).
	s, m := bootTest(t, 256)
	vn := mkfile(t, m, "/shared-fork", 1, 0)
	defer vn.Unref()
	parent := newProc(t, s, "parent")
	va, _ := parent.Mmap(0, param.PageSize, param.ProtRW, vmapi.MapShared, vn, 0)
	child, _ := parent.Fork("child")
	child.(*Process).WriteBytes(va, []byte{0x99})
	b := make([]byte, 1)
	parent.ReadBytes(va, b)
	if b[0] != 0x99 {
		t.Fatalf("shared file mapping not shared across fork: %#x", b[0])
	}
}

func TestReadBytesSpanningEntries(t *testing.T) {
	// A copy crossing two adjacent but separately-mapped regions works.
	s, _ := bootTest(t, 256)
	p := newProc(t, s, "p")
	va1, _ := p.Mmap(0x4000_0000, param.PageSize, param.ProtRW,
		vmapi.MapAnon|vmapi.MapPrivate|vmapi.MapFixed, nil, 0)
	_, err := p.Mmap(0x4000_0000+param.PageSize, param.PageSize, param.ProtRW,
		vmapi.MapAnon|vmapi.MapPrivate|vmapi.MapFixed, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	msg := make([]byte, 100)
	for i := range msg {
		msg[i] = byte(i)
	}
	start := va1 + param.PageSize - 50
	if err := p.WriteBytes(start, msg); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 100)
	if err := p.ReadBytes(start, got); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != byte(i) {
			t.Fatalf("byte %d lost across entry boundary", i)
		}
	}
}
