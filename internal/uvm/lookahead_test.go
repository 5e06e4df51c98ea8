package uvm

// Tests for the batched fault-ahead path: the clamped advice window
// (including the unsigned-underflow boundary at the bottom of the
// address space), the anon-shadows-object rule, and the
// lookahead-vs-reclaim race across the batching window.

import (
	"bytes"
	"testing"

	"uvm/internal/param"
	"uvm/internal/phys"
	"uvm/internal/vmapi"
)

// lookaheadRegion maps npages of private anonymous memory at start,
// makes every page resident (write faults), then tears all translations
// out of the pmap — leaving the anons resident — so one read fault can
// demonstrate exactly which neighbours lookahead maps. It returns the
// region base and the per-page frames.
func lookaheadRegion(t *testing.T, p *Process, m *vmapi.Machine,
	start param.VAddr, npages int, adv param.Advice) (param.VAddr, []*phys.Page) {
	t.Helper()
	va, err := p.Mmap(start, param.VSize(npages)*param.PageSize, param.ProtRW,
		vmapi.MapAnon|vmapi.MapPrivate|vmapi.MapFixed, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Madvise(va, param.VSize(npages)*param.PageSize, adv); err != nil {
		t.Fatal(err)
	}
	if err := p.TouchRange(va, param.VSize(npages)*param.PageSize, true); err != nil {
		t.Fatal(err)
	}
	pages := make([]*phys.Page, npages)
	for i := range pages {
		pte, ok := p.pm.Lookup(va + param.VAddr(i)*param.PageSize)
		if !ok {
			t.Fatalf("page %d not mapped after touch", i)
		}
		pages[i] = pte.Page
	}
	for _, pg := range pages {
		m.MMU.PageProtect(pg, param.ProtNone)
	}
	if p.pm.ResidentCount() != 0 {
		t.Fatalf("translations survived PageProtect: %d", p.pm.ResidentCount())
	}
	return va, pages
}

// TestLookaheadWindowBoundaries is the table-driven boundary test for
// the advice window: for a region of fully resident (but unmapped)
// pages, a single read fault must map exactly the clamped window —
// behind pages right down to the entry's first page, ahead pages right
// up to its last, nothing beyond, and nothing when the advice says
// random. The bottom-of-address-space rows pin the unsigned-underflow
// fix: with the entry at the lowest user page, base - behind*PageSize
// wraps through zero mid-window, and the behind pages between e.start
// and the fault must still be mapped.
func TestLookaheadWindowBoundaries(t *testing.T) {
	const mid = param.VAddr(0x4000_0000)
	cases := []struct {
		name      string
		start     param.VAddr
		npages    int
		adv       param.Advice
		faultPage int
		wantLo    int // first mapped page index (inclusive)
		wantHi    int // last mapped page index (inclusive)
	}{
		{"normal-middle", mid, 12, param.AdviceNormal, 6, 3, 10},
		{"normal-at-entry-start", mid, 12, param.AdviceNormal, 0, 0, 4},
		{"normal-one-page-in", mid, 12, param.AdviceNormal, 1, 0, 5},
		{"normal-at-entry-end", mid, 12, param.AdviceNormal, 11, 8, 11},
		{"normal-small-entry", mid, 3, param.AdviceNormal, 1, 0, 2},
		{"sequential-no-behind", mid, 12, param.AdviceSequential, 2, 2, 10},
		{"random-no-window", mid, 12, param.AdviceRandom, 6, 6, 6},
		// The lowest user pages: behind spans wrap below zero.
		{"underflow-lowest-page", param.UserTextBase, 6, param.AdviceNormal, 0, 0, 4},
		{"underflow-one-page-in", param.UserTextBase, 6, param.AdviceNormal, 1, 0, 5},
		{"underflow-two-pages-in", param.UserTextBase, 8, param.AdviceNormal, 2, 0, 6},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, m := bootTest(t, 256)
			_ = s
			p := newProc(t, s, "bound")
			va, _ := lookaheadRegion(t, p, m, tc.start, tc.npages, tc.adv)
			if err := p.Access(va+param.VAddr(tc.faultPage)*param.PageSize, false); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < tc.npages; i++ {
				_, mapped := p.pm.Lookup(va + param.VAddr(i)*param.PageSize)
				want := i >= tc.wantLo && i <= tc.wantHi
				if mapped != want {
					t.Errorf("page %d: mapped=%v, want %v (window [%d,%d])",
						i, mapped, want, tc.wantLo, tc.wantHi)
				}
			}
		})
	}
}

// TestLookaheadAnonShadowsObject is the regression test for the
// fall-through bug the batched rewrite fixed: on a private file mapping,
// a neighbour whose amap slot holds a *swapped-out* anon must not have
// the object's (stale) file page mapped in its place — the per-page path
// used to check "anon resident?" and then fall through to the object
// layer, silently exposing unmodified file data beneath a private copy.
func TestLookaheadAnonShadowsObject(t *testing.T) {
	s, m := bootTest(t, 256)
	vn := mkfile(t, m, "/shadow.bin", 8, 0x10)
	defer vn.Unref()
	p := newProc(t, s, "shadow")
	va, err := p.Mmap(0, 8*param.PageSize, param.ProtRW, vmapi.MapPrivate, vn, 0)
	if err != nil {
		t.Fatal(err)
	}

	// Page 1: write → the file page is promoted into a private anon copy.
	private := bytes.Repeat([]byte{0xAB}, param.PageSize)
	if err := p.WriteBytes(va+param.PageSize, private); err != nil {
		t.Fatal(err)
	}
	// Page 0: plain read → mapped straight from the object.
	if err := p.Access(va, false); err != nil {
		t.Fatal(err)
	}

	// Page the private copy out to swap: its anon stays in the amap with
	// a.page == nil while the object's page 1 stays resident below it.
	pte1, ok := p.pm.Lookup(va + param.PageSize)
	if !ok {
		t.Fatal("page 1 not mapped after write")
	}
	anonPg := pte1.Page
	m.MMU.PageProtect(anonPg, param.ProtNone)
	anonPg.Referenced.Store(false)
	m.Mem.Deactivate(anonPg)
	if freed, _ := s.reclaimScan(1, false); freed == 0 {
		t.Fatal("could not page the private copy out")
	}

	// The object's page 1 must be resident for the shadow rule to be
	// exercised (the buggy fall-through needs something to find).
	p.m.rlock()
	e := p.m.LookupQuiet(va)
	o := e.obj
	idx := e.objIndex(va + param.PageSize)
	p.m.runlock()
	o.mu.Lock()
	if _, resident := o.pages.Get(idx); !resident {
		if _, err := o.ops.get(o, idx, idx, idx); err != nil {
			o.mu.Unlock()
			t.Fatal(err)
		}
	}
	o.mu.Unlock()

	// Unmap page 0 and re-fault it: lookahead's window covers page 1.
	pte0, _ := p.pm.Lookup(va)
	m.MMU.PageProtect(pte0.Page, param.ProtNone)
	if err := p.Access(va, false); err != nil {
		t.Fatal(err)
	}
	if pte, mapped := p.pm.Lookup(va + param.PageSize); mapped {
		if pte.Page != anonPg {
			t.Fatalf("lookahead mapped the object page beneath a swapped-out anon (PA=%#x)", pte.Page.PA)
		}
	}

	// Reading page 1 must return the private copy (paged back in), never
	// the file's original bytes.
	got := make([]byte, param.PageSize)
	if err := p.ReadBytes(va+param.PageSize, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, private) {
		t.Fatalf("private copy lost: read %#x..., want %#x...", got[0], private[0])
	}
}

// TestLookaheadVsReclaimRace covers the batched window deterministically:
// a reclaim pass runs *between* lookahead's candidate collection and its
// EnterBatch (via the lookaheadGate test hook, on the faulting
// goroutine — the same reclaimScan body a pagedaemon round runs).
// Because collection holds every candidate's owner lock across the
// window, reclaim's TryLock must skip the collected neighbour: the page
// is neither freed nor remapped stale, and the batch maps the live frame.
func TestLookaheadVsReclaimRace(t *testing.T) {
	s, m := bootTest(t, 256)
	p := newProc(t, s, "racer")
	const npages = 8
	va, err := p.Mmap(0, npages*param.PageSize, param.ProtRW,
		vmapi.MapAnon|vmapi.MapPrivate, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.TouchRange(va, 2*param.PageSize, true); err != nil {
		t.Fatal(err)
	}
	pattern := bytes.Repeat([]byte{0x5A}, param.PageSize)
	if err := p.WriteBytes(va+param.PageSize, pattern); err != nil {
		t.Fatal(err)
	}
	pte0, _ := p.pm.Lookup(va)
	pte1, ok := p.pm.Lookup(va + param.PageSize)
	if !ok {
		t.Fatal("neighbour not mapped after touch")
	}
	neighbour := pte1.Page

	// Unmap both pages (anons stay resident) and make the neighbour the
	// most attractive reclaim victim: inactive, reference bit clear.
	m.MMU.PageProtect(pte0.Page, param.ProtNone)
	m.MMU.PageProtect(neighbour, param.ProtNone)
	neighbour.Referenced.Store(false)
	m.Mem.Deactivate(neighbour)

	gateRan := false
	s.lookaheadGate = func() {
		gateRan = true
		// The neighbour's anon is locked by lookahead right now; the
		// reclaim pass must TryLock-skip it rather than free the page.
		s.reclaimScan(npages, false)
	}
	defer func() { s.lookaheadGate = nil }()

	if err := p.Access(va, false); err != nil {
		t.Fatal(err)
	}
	s.lookaheadGate = nil
	if !gateRan {
		t.Fatal("lookahead gate never ran — no candidates were collected")
	}

	pte, mapped := p.pm.Lookup(va + param.PageSize)
	if !mapped {
		t.Fatal("collected neighbour not mapped: reclaim freed it inside the batching window")
	}
	if pte.Page != neighbour {
		t.Fatalf("stale batch entry: mapped PA=%#x, neighbour was PA=%#x", pte.Page.PA, neighbour.PA)
	}
	if owner, _ := neighbour.Owner().(*anon); owner == nil {
		t.Fatal("neighbour page lost its anon owner during the batching window")
	}
	got := make([]byte, param.PageSize)
	if err := p.ReadBytes(va+param.PageSize, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, pattern) {
		t.Fatalf("neighbour data corrupted across the batching window: %#x...", got[0])
	}
}

// TestLookaheadSkipsNeighbourEvictedBeforeFault is the companion case:
// a neighbour whose page was reclaimed *before* the fault (anon in the
// amap, a.page == nil) is simply not a candidate — the batch must not
// map anything for it, and the next touch pages it back in from swap
// intact.
func TestLookaheadSkipsNeighbourEvictedBeforeFault(t *testing.T) {
	s, m := bootTest(t, 256)
	p := newProc(t, s, "evicted")
	va, err := p.Mmap(0, 8*param.PageSize, param.ProtRW,
		vmapi.MapAnon|vmapi.MapPrivate, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	pattern := bytes.Repeat([]byte{0x77}, param.PageSize)
	if err := p.Access(va, true); err != nil {
		t.Fatal(err)
	}
	if err := p.WriteBytes(va+param.PageSize, pattern); err != nil {
		t.Fatal(err)
	}
	pte0, _ := p.pm.Lookup(va)
	pte1, _ := p.pm.Lookup(va + param.PageSize)
	m.MMU.PageProtect(pte0.Page, param.ProtNone)
	m.MMU.PageProtect(pte1.Page, param.ProtNone)
	pte1.Page.Referenced.Store(false)
	m.Mem.Deactivate(pte1.Page)
	if freed, _ := s.reclaimScan(1, false); freed == 0 {
		t.Fatal("could not evict the neighbour")
	}

	if err := p.Access(va, false); err != nil {
		t.Fatal(err)
	}
	if _, mapped := p.pm.Lookup(va + param.PageSize); mapped {
		t.Fatal("lookahead mapped a non-resident neighbour")
	}
	got := make([]byte, param.PageSize)
	if err := p.ReadBytes(va+param.PageSize, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, pattern) {
		t.Fatalf("swap round trip corrupted the neighbour: %#x...", got[0])
	}
}

// TestLookaheadFreshRegionLooksUpNothingAhead fences the owner-first
// order: lookahead asks the amap for a resident neighbour before it asks
// the pmap whether the VA is already mapped. Faulting a fresh zero-fill
// region front to back, the pages ahead of each fault have no anon yet,
// so they cost no pmap lookup at all; only the (up to three) resident
// pages behind it are looked up — and found mapped, so nothing is
// entered. Asking the pmap first costs a lookup per window page.
func TestLookaheadFreshRegionLooksUpNothingAhead(t *testing.T) {
	s, m := bootTest(t, 256)
	p := newProc(t, s, "fresh")
	const npages = 16
	va, err := p.Mmap(0, npages*param.PageSize, param.ProtRW,
		vmapi.MapAnon|vmapi.MapPrivate, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, behind := param.AdviceNormal.Lookahead()
	before, want := p.pm.Lookups(), uint64(0)
	for i := 0; i < npages; i++ {
		if err := p.Access(va+param.VAddr(i)*param.PageSize, true); err != nil {
			t.Fatal(err)
		}
		want += uint64(min(i, behind))
	}
	if got := p.pm.Lookups() - before; got != want {
		t.Errorf("%d pmap lookups over %d front-to-back faults, want %d (resident pages behind the fault only)",
			got, npages, want)
	}
	if got := m.Stats.Get("uvm.lookahead.mapped"); got != 0 {
		t.Errorf("lookahead mapped %d pages of a region with nothing to map", got)
	}
	if got := p.pm.ResidentCount(); got != npages {
		t.Errorf("%d translations after faulting %d pages", got, npages)
	}
}
