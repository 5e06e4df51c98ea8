package pmap

// The pv-inverse property difftest: after any interleaving of Enter,
// EnterBatch, Remove, RemoveBatch, RemoveAll, ChangeWiring and PageProtect across
// several pmaps, the sharded reverse map and every pmap's page table
// must be exact mutual inverses — every PTE has exactly one pv entry and
// every pv entry points back at a live PTE for its page — and each
// pmap's wired count must equal the number of wired PTEs it holds.
//
// TestPVInverseDeterministic drives one goroutine from a fixed seed so a
// failure replays exactly; TestPVInverseConcurrent drives racing workers
// (run under -race in CI) whose pmap/pv updates are atomic under the
// pmap mutex, so the inverse holds at join no matter the interleaving.

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"uvm/internal/param"
	"uvm/internal/phys"
)

type pvKey struct {
	pm *Pmap
	va param.VAddr
}

// checkInverse asserts that the pv table and the page tables of pmaps are
// mutual inverses. It takes the same locks the pmap layer does, so it is
// safe to call while the fixture is quiescent (no concurrent mutators).
func checkInverse(t *testing.T, f *fixture, pmaps []*Pmap) {
	t.Helper()
	mmu := f.mmu

	// Forward direction: every PTE, and the wired bookkeeping with it.
	want := make(map[pvKey]*phys.Page)
	for _, pm := range pmaps {
		pm.mu.Lock()
		wired := 0
		pm.walkLocked(0, vaLimit, func(_ *pde, va param.VAddr, slot *uint32) {
			pte, _ := mmu.decode(*slot)
			want[pvKey{pm, va}] = pte.Page
			if pte.Wired {
				wired++
			}
		})
		if pm.wired != wired {
			t.Errorf("%v: wired count %d, but %d wired PTEs", pm, pm.wired, wired)
		}
		pm.mu.Unlock()
	}

	// Reverse direction: every pv entry of every frame, checking the
	// list's shape, the bucket census and duplicates along the way.
	got := make(map[pvKey]*phys.Page)
	var census [pvShards]int
	f.mem.ForEachFrame(func(pg *phys.Page) bool {
		b := mmu.bucketOf(pg)
		b.mu.Lock()
		defer b.mu.Unlock()
		list := pg.PV.More
		if pg.PV.First.Pmap != nil {
			list = append([]phys.PVEntry{pg.PV.First}, list...)
		} else if len(list) > 0 {
			t.Errorf("page PA=%#x has %d overflow pv entries behind an empty inline slot", pg.PA, len(list))
		}
		for _, e := range pg.PV.More[len(pg.PV.More):cap(pg.PV.More)] {
			if e.Pmap != nil {
				t.Errorf("page PA=%#x keeps %v alive from its pv list's spare capacity", pg.PA, e.Pmap)
			}
		}
		census[mmu.bucketIndex(pg)] += len(list)
		for _, e := range list {
			k := pvKey{pvOwner(e), e.VA}
			if k.pm == nil {
				t.Errorf("page PA=%#x has an empty pv entry inside its list", pg.PA)
			}
			if _, dup := got[k]; dup {
				t.Errorf("duplicate pv entry for %v va=%#x", k.pm, k.va)
			}
			got[k] = pg
		}
		return true
	})
	for i := range mmu.buckets {
		b := &mmu.buckets[i]
		b.mu.Lock()
		if b.n != census[i] {
			t.Errorf("bucket %d counts %d pv entries, its frames hold %d", i, b.n, census[i])
		}
		b.mu.Unlock()
	}

	for k, pg := range want {
		if got[k] != pg {
			t.Errorf("PTE %v va=%#x -> PA=%#x has pv entry for %v", k.pm, k.va, pg.PA, pvPA(got[k]))
		}
	}
	for k, pg := range got {
		if want[k] != pg {
			t.Errorf("pv entry %v va=%#x -> PA=%#x has no matching PTE", k.pm, k.va, pg.PA)
		}
	}
}

func pvPA(pg *phys.Page) any {
	if pg == nil {
		return "nothing"
	}
	return fmt.Sprintf("PA=%#x", pg.PA)
}

// pvFuzzer drives one pmap with random operations against a shared page
// pool. VAs are confined to the pmap's own window so two fuzzers never
// fight over one (pmap, va) pair — pv updates are atomic per pmap, but
// "last writer wins on the same VA" is not a property worth racing for.
// Pages ARE shared across fuzzers, so PageProtect from one worker tears
// mappings out of another worker's pmap concurrently with its own
// enters.
type pvFuzzer struct {
	mmu   *MMU
	pm    *Pmap
	pages []*phys.Page
	base  param.VAddr
	nva   int
	rng   *rand.Rand
}

func (f *pvFuzzer) va(i int) param.VAddr { return f.base + param.VAddr(i)*param.PageSize }

func (f *pvFuzzer) step() {
	switch f.rng.Intn(100) {
	case 0: // rare: full teardown
		f.pm.RemoveAll()
	default:
		switch f.rng.Intn(5) {
		case 0: // single enter, sometimes wired, sometimes replacing
			f.pm.Enter(f.va(f.rng.Intn(f.nva)), f.pages[f.rng.Intn(len(f.pages))],
				param.ProtRW, f.rng.Intn(4) == 0)
		case 1: // batch enter over a random window
			n := 1 + f.rng.Intn(8)
			start := f.rng.Intn(f.nva)
			batch := make([]BatchEntry, 0, n)
			for i := 0; i < n; i++ {
				batch = append(batch, BatchEntry{
					VA:    f.va((start + i) % f.nva),
					Page:  f.pages[f.rng.Intn(len(f.pages))],
					Prot:  param.ProtRW,
					Wired: f.rng.Intn(8) == 0,
				})
			}
			f.pm.EnterBatch(batch)
		case 2: // range removal, per-page or batched
			start := f.rng.Intn(f.nva)
			end := start + 1 + f.rng.Intn(6)
			if f.rng.Intn(2) == 0 {
				f.pm.Remove(f.va(start), f.va(end))
			} else {
				f.pm.RemoveBatch(f.va(start), f.va(end))
			}
		case 3: // page-level protect / teardown across all pmaps
			pg := f.pages[f.rng.Intn(len(f.pages))]
			switch f.rng.Intn(3) {
			case 0:
				f.mmu.PageProtect(pg, param.ProtNone)
			case 1:
				f.mmu.PageProtect(pg, param.ProtRead)
			default:
				f.mmu.pageMappings(pg)
			}
		case 4: // wiring flips
			f.pm.ChangeWiring(f.va(f.rng.Intn(f.nva)), f.rng.Intn(2) == 0)
		}
	}
}

func pvFuzzFixture(t *testing.T, shards, npmaps, npages int, seed int64) (*fixture, []*pvFuzzer) {
	t.Helper()
	f := newFixture(npages + 8)
	f.mmu.SetPVShards(shards)
	pages := make([]*phys.Page, npages)
	for i := range pages {
		pages[i] = f.page(t)
	}
	fuzzers := make([]*pvFuzzer, npmaps)
	for i := range fuzzers {
		fuzzers[i] = &pvFuzzer{
			mmu:   f.mmu,
			pm:    f.mmu.NewPmap(fmt.Sprintf("fuzz%d", i)),
			pages: pages,
			// Disjoint 4 MB-aligned windows: region accounting (PT pages)
			// stays per-fuzzer and (pmap, va) pairs never collide.
			base: param.VAddr(0x1000_0000 + i<<ptRegionShift),
			nva:  16,
			rng:  rand.New(rand.NewSource(seed + int64(i))),
		}
	}
	return f, fuzzers
}

func pvPmaps(fuzzers []*pvFuzzer) []*Pmap {
	pms := make([]*Pmap, len(fuzzers))
	for i, fz := range fuzzers {
		pms[i] = fz.pm
	}
	return pms
}

func TestPVInverseDeterministic(t *testing.T) {
	for _, shards := range []int{1, 4, 64} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			f, fuzzers := pvFuzzFixture(t, shards, 4, 32, 0x5eed)
			for step := 0; step < 4000; step++ {
				fuzzers[step%len(fuzzers)].step()
				if step%500 == 499 {
					checkInverse(t, f, pvPmaps(fuzzers))
				}
			}
			checkInverse(t, f, pvPmaps(fuzzers))
		})
	}
}

func TestPVInverseConcurrent(t *testing.T) {
	for _, shards := range []int{1, 64} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			f, fuzzers := pvFuzzFixture(t, shards, 8, 32, 0xc0ffee)
			var wg sync.WaitGroup
			for _, fz := range fuzzers {
				wg.Add(1)
				go func(fz *pvFuzzer) {
					defer wg.Done()
					for step := 0; step < 3000; step++ {
						fz.step()
					}
				}(fz)
			}
			wg.Wait()
			checkInverse(t, f, pvPmaps(fuzzers))
		})
	}
}

// TestEnterBatchMatchesEnter pins EnterBatch to Enter's semantics: the
// same sequence applied either way yields identical page tables, pv
// lists, wired counts and PT-page accounting — including replacement of
// an existing translation and wired/unwired transitions within one
// batch.
func TestEnterBatchMatchesEnter(t *testing.T) {
	seq := func(pgs []*phys.Page) []BatchEntry {
		return []BatchEntry{
			{VA: 0x1000, Page: pgs[0], Prot: param.ProtRW, Wired: true},
			{VA: 0x2000, Page: pgs[1], Prot: param.ProtRead},
			{VA: 0x1000, Page: pgs[2], Prot: param.ProtRead},            // replace, unwire
			{VA: 0x40000000, Page: pgs[3], Prot: param.ProtRW},          // second PT region
			{VA: 0x2000, Page: pgs[1], Prot: param.ProtRW, Wired: true}, // same page re-enter
		}
	}

	single := newFixture(8)
	batched := newFixture(8)
	var spgs, bpgs []*phys.Page
	for i := 0; i < 4; i++ {
		spgs = append(spgs, single.page(t))
		bpgs = append(bpgs, batched.page(t))
	}
	spm := single.mmu.NewPmap("single")
	bpm := batched.mmu.NewPmap("batched")
	for _, be := range seq(spgs) {
		spm.Enter(be.VA, be.Page, be.Prot, be.Wired)
	}
	bpm.EnterBatch(seq(bpgs))

	if spm.ResidentCount() != bpm.ResidentCount() ||
		spm.wiredCount() != bpm.wiredCount() ||
		spm.PTPages() != bpm.PTPages() {
		t.Fatalf("bookkeeping diverged: single res=%d wired=%d pt=%d, batched res=%d wired=%d pt=%d",
			spm.ResidentCount(), spm.wiredCount(), spm.PTPages(),
			bpm.ResidentCount(), bpm.wiredCount(), bpm.PTPages())
	}
	for i := range spgs {
		if single.mmu.pageMappings(spgs[i]) != batched.mmu.pageMappings(bpgs[i]) {
			t.Fatalf("page %d: pv count %d (single) vs %d (batched)",
				i, single.mmu.pageMappings(spgs[i]), batched.mmu.pageMappings(bpgs[i]))
		}
	}
	for _, va := range []param.VAddr{0x1000, 0x2000, 0x40000000} {
		sp, sok := spm.Lookup(va)
		bp, bok := bpm.Lookup(va)
		if sok != bok || sp.Prot != bp.Prot || sp.Wired != bp.Wired {
			t.Fatalf("va %#x: single %+v/%v vs batched %+v/%v", va, sp, sok, bp, bok)
		}
	}
	checkInverse(t, batched, []*Pmap{bpm})
}

// TestEnterBatchUnalignedPanics pins the batch path's alignment guard:
// the panic fires before any entry lands.
func TestEnterBatchUnalignedPanics(t *testing.T) {
	f := newFixture(2)
	pm := f.mmu.NewPmap("p")
	pg := f.page(t)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
		if pm.ResidentCount() != 0 {
			t.Error("partial batch applied before the alignment panic")
		}
	}()
	pm.EnterBatch([]BatchEntry{
		{VA: 0x1000, Page: pg, Prot: param.ProtRead},
		{VA: 0x2001, Page: pg, Prot: param.ProtRead},
	})
}
