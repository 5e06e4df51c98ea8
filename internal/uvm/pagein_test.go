package uvm

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"

	"uvm/internal/disk"
	"uvm/internal/param"
	"uvm/internal/sim"
	"uvm/internal/vfs"
	"uvm/internal/vmapi"
	"uvm/internal/vmapi/testutil"
)

// TestPageinTable drives the one page-read mechanism through every
// combination it serves. The swap-backed half: owner {anon, aobj} x shape
// {cluster: the default configuration, a pagein fills the advice window;
// single: PageinCluster 1; random: random advice, an empty window;
// noclustering: DisableClustering} x outcome {healthy disk; read error on
// the faulting page's block; read error on a neighbour's block only; a
// neighbour that drops out — an anon that is TryLock-busy, already
// resident, or one that would need the slot past the swap device's last;
// an anon or aobj page holding a slot that is not the next one (moved
// away, or reversed: the neighbours on either side of the fault trade
// slots, so each sits next to the fault's slot on the wrong side) — each
// of which ends the walk on its side of the fault and leaves the other
// side alone; an aobj page made resident or stripped of its slot while
// o.mu is down for a frame allocation}, plus the vnode
// owner under the first two shapes — a file pagein does not look at
// PageinCluster, so both fill the advice window. Each such cell builds an
// eight-page region whose data sits on backing store — paged out in a
// scrambled order as one cluster, which pageout lays out in VA order —
// faults on one page and checks the fault's result, the bytes, which pages
// came in, the Busy and owner-lock hand-back, the frame accounting, the
// read commands and the pages they moved, and vm.pageins.
//
// The file half (vnodePageinCell): advice {normal, sequential, random} x
// config {default, DisableClustering} x outcome {ok, centre-err, nbr-err,
// nbr-resident, nbr-raced, eof, entry}.
func TestPageinTable(t *testing.T) {
	for _, owner := range []string{"anon", "aobj", "vnode"} {
		for _, shape := range []string{"single", "cluster", "random", "noclustering"} {
			for _, outcome := range []string{"ok", "centre-err", "nbr-err", "nbr-busy", "nbr-resident", "nbr-noslot", "nbr-moved", "nbr-reversed", "swap-edge"} {
				anonOnly := outcome == "nbr-busy" || outcome == "swap-edge"
				swapOnly := outcome == "nbr-moved" || outcome == "nbr-reversed"
				switch {
				case (shape == "random" || shape == "noclustering") && (outcome != "ok" || owner == "vnode"), // the file half has the vnode's
					outcome == "nbr-err" && (shape == "single" || owner == "vnode"), // a run of one has no neighbours
					anonOnly && (owner != "anon" || shape != "cluster"),
					swapOnly && (owner == "vnode" || shape != "cluster"),
					outcome == "nbr-resident" && (owner == "vnode" || shape != "cluster"),
					outcome == "nbr-noslot" && (owner != "aobj" || shape != "cluster"):
					continue
				}
				t.Run(owner+"/"+shape+"/"+outcome, func(t *testing.T) { pageinCell(t, owner, shape, outcome) })
			}
		}
	}
	for _, advice := range []param.Advice{param.AdviceNormal, param.AdviceSequential, param.AdviceRandom} {
		for _, config := range []string{"default", "noclustering"} {
			for _, outcome := range []string{"ok", "centre-err", "nbr-err", "nbr-resident", "nbr-raced", "eof", "entry"} {
				t.Run("vnode/"+advice.String()+"/"+config+"/"+outcome, func(t *testing.T) {
					vnodePageinCell(t, advice, config == "noclustering", outcome)
				})
			}
		}
	}
}

// TestAdviceWindowsFitPageinStack: every advice window — the page and
// the neighbours Lookahead names on either side — fits the stack arrays a
// pagein run lives in. A run never reaches past its fault's window, so a
// wider window must widen pageinStack with it.
func TestAdviceWindowsFitPageinStack(t *testing.T) {
	for a := 0; a <= math.MaxUint8; a++ {
		advice := param.Advice(a)
		if ahead, behind := advice.Lookahead(); ahead+behind+1 > pageinStack {
			t.Errorf("%v advice: a window of %d ahead and %d behind is %d pages, pageinStack holds %d",
				advice, ahead, behind, ahead+behind+1, pageinStack)
		}
	}
}

// hookAllocs runs hook inside every frame allocation from here on, with
// no phys lock held: one magazine that refills a frame at a time makes
// every allocation refill, and the allocation gate runs between a refill
// and its use. SetAllocGate(nil) removes the hook.
func hookAllocs(m *vmapi.Machine, hook func()) {
	m.Mem.SetAllocCaches(1, 1)
	m.Mem.SetAllocGate(hook)
}

func pageinCell(t *testing.T, owner, shape, outcome string) {
	const n = 8
	centre := 3
	mc := vmapi.MachineConfig{RAMPages: 256, SwapPages: 256, FSPages: 1024, MaxVnodes: 8}
	if outcome == "swap-edge" {
		mc.SwapPages = n + 4 // the region's cluster, and four slots up to the device's end
	}
	m := vmapi.NewMachine(mc)
	cfg := DefaultConfig()
	switch shape {
	case "single":
		cfg.PageinCluster = 1
	case "noclustering":
		cfg.DisableClustering = true
	}
	s := BootConfig(m, cfg)
	testutil.SweepOnCleanup(t, s)
	p := newProc(t, s, "p")
	want := func(i int) []byte { return bytes.Repeat([]byte{0xA0 + byte(i)}, param.PageSize) }
	var va param.VAddr
	at := func(i int) param.VAddr { return va + param.VAddr(i)*param.PageSize }

	// The region, its data on backing store: file order for the vnode; for
	// swap, one pageout cluster collected in a scrambled order.
	var err error
	dev := m.SwapDisk
	if owner == "vnode" {
		dev = m.FSDisk
		vn := mkfile(t, m, "/pagein", n, 0xA0)
		defer vn.Unref()
		if va, err = p.Mmap(0, n*param.PageSize, param.ProtRead, vmapi.MapShared, vn, 0); err != nil {
			t.Fatal(err)
		}
	} else {
		flags := vmapi.MapAnon | vmapi.MapPrivate
		if owner == "aobj" {
			flags = vmapi.MapAnon | vmapi.MapShared
		}
		if va, err = p.Mmap(0, n*param.PageSize, param.ProtRW, flags, nil, 0); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if err := p.WriteBytes(at(i), want(i)); err != nil {
				t.Fatal(err)
			}
		}
		for _, i := range [n]int{5, 2, 7, 0, 3, 6, 1, 4} { // the order the scan will find them in
			pte, _ := p.pm.Lookup(at(i))
			m.MMU.PageProtect(pte.Page, param.ProtNone)
			pte.Page.Referenced.Store(false)
			m.Mem.Deactivate(pte.Page)
		}
		if freed, _ := s.reclaimScan(n, false); freed != n {
			t.Fatalf("evicted %d of %d pages", freed, n)
		}
		if shape == "random" {
			if err := p.Madvise(va, n*param.PageSize, param.AdviceRandom); err != nil {
				t.Fatal(err)
			}
		}
	}
	e := p.m.LookupQuiet(va)
	anonOf := func(i int) *anon { return e.amap.get(e.slotOf(at(i))) }
	blk := func(i int) int64 {
		switch owner {
		case "anon":
			return anonOf(i).swslot
		case "aobj":
			slot, _ := e.obj.aobjSlots.Get(e.objIndex(at(i)))
			return slot
		}
		return int64(i)
	}
	for i := 1; i < n && shape != "noclustering"; i++ { // which lays nothing out: a slot per page, in scan order
		if blk(i) != blk(0)+int64(i) {
			t.Fatalf("page %d was paged out to slot %d and page 0 to slot %d: the cluster is not laid out in VA order", i, blk(i), blk(0))
		}
	}
	isResident := func(i int) bool {
		if owner == "anon" {
			return anonOf(i).page != nil
		}
		_, ok := e.obj.pages.Get(e.objIndex(at(i)))
		return ok
	}
	for i := 0; i < n; i++ {
		if isResident(i) {
			t.Fatalf("region page %d resident before the fault", i)
		}
	}
	// place re-homes page i's swapped-out data to slot, by hand; moveTo
	// also frees the slot it held.
	place := func(i int, slot int64) {
		if err := m.Swap.WriteCluster(slot, [][]byte{want(i)}); err != nil {
			t.Fatal(err)
		}
		if owner == "anon" {
			anonOf(i).swslot = slot
		} else {
			e.obj.aobjSlots.Set(e.objIndex(at(i)), slot)
		}
	}
	moveTo := func(i int, slot int64) {
		old := blk(i)
		place(i, slot)
		m.Swap.Free(old)
	}

	// The window the fault offers the pager, then the outcome's condition:
	// the victim is the neighbour that drops out, pre whether it is resident
	// without the fault having read it.
	lo, hi := centre, centre
	if shape == "cluster" || owner == "vnode" {
		lo, hi = max(centre-3, 0), min(centre+4, n-1) // normal advice: three behind, four ahead
	}
	victim, pre := -1, false
	switch outcome {
	case "nbr-busy":
		victim = centre - 2
		anonOf(victim).mu.Lock()
	case "nbr-moved":
		victim = centre + 2
		spare, err := m.Swap.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		moveTo(victim, spare)
	case "nbr-reversed":
		// The neighbour ahead takes the slot just below the fault's and the
		// one behind the slot just above it: adjacent, in the wrong order.
		victim = centre + 1
		behind, ahead := blk(centre-1), blk(victim)
		place(victim, behind)
		place(centre-1, ahead)
	case "swap-edge":
		// Pages 0-3 to the last four slots of the swap device: the fault on
		// page 3 holds the last slot, so the walk ahead stops at Slots() and
		// the run is the four pages behind it and nothing past the end.
		tail, err := m.Swap.AllocContig(4)
		if err != nil || tail+4 != m.Swap.Slots() {
			t.Fatalf("slots %d (%v) do not end at the device's end %d", tail, err, m.Swap.Slots())
		}
		for i := 0; i <= centre; i++ {
			moveTo(i, tail+int64(i))
		}
		victim = centre + 1
	case "nbr-resident", "nbr-noslot":
		if owner == "anon" {
			victim, pre = centre+2, true
			a := anonOf(victim)
			pg, err := m.Mem.Alloc(a, 0, false)
			if err != nil {
				t.Fatal(err)
			}
			copy(pg.Writable(), want(victim))
			a.page = pg
			m.Mem.Activate(pg)
			break
		}
		// The victim is the first page of the run: the aobj enumerator has
		// its frame in hand before the rug is pulled, so it is the
		// re-verification that must notice.
		victim, pre = lo, outcome == "nbr-resident"
		o, vIdx, allocs := e.obj, e.objIndex(at(victim)), 0
		hookAllocs(m, func() {
			if allocs++; allocs != 3 {
				return // 1: the centre's frame, 2: the victim's, 3: the next neighbour's
			}
			o.mu.Lock()
			if outcome == "nbr-noslot" {
				slot, _ := o.aobjSlots.Get(vIdx)
				m.Swap.Free(slot)
				o.aobjSlots.Delete(vIdx)
			} else {
				pg, err := m.Mem.Alloc(o, param.PageToOff(vIdx), false)
				if err != nil {
					t.Error(err)
				}
				copy(pg.Writable(), want(victim))
				pg.Dirty.Store(true)
				o.pages.Set(vIdx, pg)
				m.Mem.Activate(pg)
			}
			o.mu.Unlock()
		})
	}
	// A neighbour that drops out ends the run on its side of the fault.
	switch {
	case victim < 0:
	case victim < centre:
		lo = victim + 1
	default:
		hi = victim - 1
	}
	if outcome == "nbr-reversed" {
		lo = centre // the neighbour behind holds the wrong slot too
	}
	switch outcome {
	case "centre-err", "nbr-err":
		rule := disk.FaultRule{Kind: disk.FaultReadError, Block: blk(centre)}
		switch {
		case owner == "vnode":
			rule.Block = disk.BlockAny
		case outcome == "nbr-err":
			rule.Block = blk(lo)
		}
		dev.SetFaultPlan(disk.NewFaultPlan(rule))
	}

	// What the fault should do: one command for the run; when that fails, a
	// second for the faulting page alone, and nothing of the run attached.
	installed := map[int]bool{}
	wantReads, wantMoved := 1, hi-lo+1
	switch outcome {
	case "centre-err", "nbr-err":
		wantMoved = 0 // a command moves the pages before the bad block
		if hi > lo {
			wantReads = 2
			if owner != "vnode" && outcome == "centre-err" {
				wantMoved = centre - lo
			}
		}
		if outcome == "nbr-err" {
			installed[centre], wantMoved = true, wantMoved+1
		}
	default:
		for i := lo; i <= hi; i++ {
			installed[i] = true
		}
	}
	byHook := 0
	if pre && owner != "anon" {
		byHook = 1 // a frame the fault's allocation hook takes, on top of the run's
	}

	before := m.Stats.Snapshot()
	freeBefore := m.Mem.FreePages()
	got := make([]byte, param.PageSize)
	err = p.ReadBytes(at(centre), got)
	after := m.Stats.Snapshot()
	dev.SetFaultPlan(nil)
	m.Mem.SetAllocGate(nil)
	if outcome == "nbr-busy" {
		anonOf(victim).mu.Unlock()
	}

	if outcome == "centre-err" {
		if !errors.Is(err, disk.ErrInjected) {
			t.Fatalf("fault returned %v, want ErrInjected", err)
		}
	} else if err != nil || !bytes.Equal(got, want(centre)) {
		t.Fatalf("fault: err=%v first byte %#x, want %#x", err, got[0], want(centre)[0])
	}
	busySweep(t, m, "after the fault")
	for i := 0; i < n; i++ {
		if wantRes := installed[i] || (pre && i == victim); isResident(i) != wantRes {
			t.Errorf("page %d resident=%v after the fault, want %v (run %d..%d)", i, isResident(i), wantRes, lo, hi)
		}
	}
	if d := freeBefore - m.Mem.FreePages(); d != len(installed)+byHook {
		t.Errorf("free frames fell by %d, want %d", d, len(installed)+byHook)
	}
	delta := func(name string) int { return int(after[name] - before[name]) }
	if delta(sim.CtrDiskReads) != wantReads || delta(sim.CtrDiskPagesRead) != wantMoved {
		t.Errorf("%d read commands moved %d pages, want %d moving %d",
			delta(sim.CtrDiskReads), delta(sim.CtrDiskPagesRead), wantReads, wantMoved)
	}
	if owner != "vnode" && delta(sim.CtrSwapIOs) != wantReads {
		t.Errorf("%d swap I/Os, want %d", delta(sim.CtrSwapIOs), wantReads)
	}
	if delta(sim.CtrPageIns) != len(installed) {
		t.Errorf("vm.pageins grew by %d, want %d", delta(sim.CtrPageIns), len(installed))
	}
	wantAnon := 0
	if owner == "anon" {
		wantAnon = len(installed)
	}
	if delta("uvm.anon.pagein") != wantAnon {
		t.Errorf("uvm.anon.pagein grew by %d, want %d", delta("uvm.anon.pagein"), wantAnon)
	}

	// Every owner lock is free again.
	if owner == "anon" {
		for i := 0; i < n; i++ {
			if a := anonOf(i); !a.mu.TryLock() {
				t.Fatalf("anon of page %d still locked after the fault", i)
			} else {
				a.mu.Unlock()
			}
		}
		if !e.amap.mu.TryLock() {
			t.Fatal("amap still locked after the fault")
		}
		e.amap.mu.Unlock()
	} else {
		if !e.obj.mu.TryLock() {
			t.Fatal("object still locked after the fault")
		}
		e.obj.mu.Unlock()
	}

	// With the disk healthy again every byte is what was paged out: pages
	// a failed run gave up on, neighbours that rode along and neighbours
	// that dropped out alike.
	for i := 0; i < n; i++ {
		exp := want(i)
		if outcome == "nbr-noslot" && i == victim {
			exp = make([]byte, param.PageSize) // its backing copy was freed: zero-fill
		}
		if err := p.ReadBytes(at(i), got); err != nil || !bytes.Equal(got, exp) {
			t.Errorf("page %d afterwards: err=%v first byte %#x, want %#x", i, err, got[0], exp[0])
		}
	}
	busySweep(t, m, "at the end")
}

// vnodePageinCell is one file pagein: a cold file mapped shared and
// read-only with the given advice, one read fault on file page c. The
// run the fault should read is worked out here from the rule alone — the
// advice window around c, clipped to the mapping and to EOF, narrowed to
// c under DisableClustering, then grown outward from c until a resident
// page stops it — and compared with what happened: the pages installed,
// their bytes, Busy, the free-frame count, the read commands and the
// pages they moved, vm.pageins. The file is the disk's first extent, so
// page i is block i.
func vnodePageinCell(t *testing.T, advice param.Advice, noClustering bool, outcome string) {
	const c = 8 // the faulting file page
	filePages, mapLo, mapHi := 24, 0, 23
	switch outcome {
	case "eof": // the mapping runs two pages past the end of the file
		filePages, mapHi = 10, 11
	case "entry": // a four-page mapping in the middle of the file
		mapLo, mapHi = c-1, c+2
	}
	m := vmapi.NewMachine(vmapi.MachineConfig{RAMPages: 256, SwapPages: 256, FSPages: 1024, MaxVnodes: 8})
	cfg := DefaultConfig()
	cfg.DisableClustering = noClustering
	s := BootConfig(m, cfg)
	testutil.SweepOnCleanup(t, s)
	p := newProc(t, s, "p")
	want := func(i int) []byte {
		if i >= filePages {
			return make([]byte, param.PageSize) // past EOF: zero-fill
		}
		return bytes.Repeat([]byte{0xA0 + byte(i)}, param.PageSize)
	}
	vn := mkfile(t, m, "/pagein", filePages, 0xA0)
	defer vn.Unref()
	got := make([]byte, param.PageSize)
	if err := m.FSDisk.ReadPages(c, [][]byte{got}); err != nil || !bytes.Equal(got, want(c)) {
		t.Fatalf("block %d does not hold file page %d (err=%v)", c, c, err)
	}
	va, err := p.Mmap(0, param.VSize(mapHi-mapLo+1)*param.PageSize, param.ProtRead, vmapi.MapShared, vn, param.PageToOff(mapLo))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Madvise(va, param.VSize(mapHi-mapLo+1)*param.PageSize, advice); err != nil {
		t.Fatal(err)
	}
	at := func(i int) param.VAddr { return va + param.VAddr(i-mapLo)*param.PageSize }
	o := p.m.LookupQuiet(va).obj

	// The window the lookahead maps, and the one the fault offers the pager.
	ahead, behind := advice.Lookahead()
	mapsLo, mapsHi := c-behind, c+ahead
	if noClustering {
		ahead, behind = 0, 0
	}
	lo, hi := max(c-behind, mapLo), min(c+ahead, mapHi, filePages-1)

	// The outcome's condition. pre marks the pages that are resident by the
	// time the run is final without the fault having read them.
	pre := map[int]bool{}
	badBlock, byHook := -1, 0
	switch outcome {
	case "centre-err":
		badBlock = c
	case "nbr-err":
		badBlock = c + 1
	case "nbr-resident":
		o.mu.Lock()
		pg, err := s.objPage(o, c+2, c+2, c+2)
		if err == nil {
			m.Mem.Activate(pg)
		}
		o.mu.Unlock()
		if err != nil || !bytes.Equal(pg.Data(), want(c+2)) {
			t.Fatalf("objPage(%d): err=%v", c+2, err)
		}
		pre[c+2] = true
	case "nbr-raced":
		// The victim is the first neighbour the pager allocates a frame
		// for: it becomes resident inside the next neighbour's allocation,
		// so only the re-verification afterwards can notice.
		victim := c + 1
		if lo < c {
			victim = lo
		}
		if hi-lo >= 2 {
			pre[victim], byHook = true, 1
		}
		allocs := 0
		hookAllocs(m, func() {
			if allocs++; allocs != 3 {
				return // 1: the centre's frame, 2: the victim's, 3: the next neighbour's
			}
			o.mu.Lock()
			pg, err := m.Mem.Alloc(o, param.PageToOff(victim), false)
			if err != nil {
				t.Error(err)
			}
			copy(pg.Writable(), want(victim))
			o.pages.Set(victim, pg)
			m.Mem.Activate(pg)
			o.mu.Unlock()
		})
	}
	if badBlock >= 0 {
		m.FSDisk.SetFaultPlan(disk.NewFaultPlan(disk.FaultRule{Kind: disk.FaultReadError, Block: int64(badBlock)}))
	}

	// What the fault should do.
	runLo, runHi := c, c
	for runLo > lo && !pre[runLo-1] {
		runLo--
	}
	for runHi < hi && !pre[runHi+1] {
		runHi++
	}
	wantCmds, wantMoved, installed := 1, runHi-runLo+1, map[int]bool{}
	switch {
	case badBlock >= runLo && badBlock <= runHi && runLo < runHi:
		// The run's read stops at the bad block; the centre is retried alone.
		wantCmds, wantMoved = 2, badBlock-runLo
		if badBlock != c {
			wantMoved, installed[c] = wantMoved+1, true
		}
	case badBlock == c:
		wantMoved = 0
	default:
		for i := runLo; i <= runHi; i++ {
			installed[i] = true
		}
	}

	before := m.Stats.Snapshot()
	freeBefore := m.Mem.FreePages()
	err = p.ReadBytes(at(c), got)
	after := m.Stats.Snapshot()
	m.FSDisk.SetFaultPlan(nil)
	m.Mem.SetAllocGate(nil)

	if outcome == "centre-err" {
		if !errors.Is(err, disk.ErrInjected) {
			t.Fatalf("fault returned %v, want ErrInjected", err)
		}
	} else if err != nil || !bytes.Equal(got, want(c)) {
		t.Fatalf("fault: err=%v first byte %#x, want %#x", err, got[0], want(c)[0])
	}
	busySweep(t, m, "after the fault")
	for i := 0; i <= max(mapHi, filePages-1); i++ {
		pg, _ := o.pages.Get(i)
		if (pg != nil) != (installed[i] || pre[i]) {
			t.Errorf("file page %d resident=%v, want %v (run %d..%d)", i, pg != nil, installed[i] || pre[i], runLo, runHi)
		} else if pg != nil && !bytes.Equal(pg.Data(), want(i)) {
			t.Errorf("file page %d holds %#x, want %#x", i, pg.Data()[0], want(i)[0])
		}
		if i < mapLo || i > mapHi {
			continue
		}
		// The lookahead maps what the run brought in, in the same fault.
		wantMapped := (installed[i] || pre[i]) && i >= mapsLo && i <= mapsHi
		if _, mapped := p.pm.Lookup(at(i)); mapped != wantMapped {
			t.Errorf("file page %d mapped=%v after the fault, want %v", i, mapped, wantMapped)
		}
	}
	if d := freeBefore - m.Mem.FreePages(); d != len(installed)+byHook {
		t.Errorf("free frames fell by %d, want %d", d, len(installed)+byHook)
	}
	delta := func(name string) int { return int(after[name] - before[name]) }
	if delta(sim.CtrDiskReads) != wantCmds || delta(sim.CtrDiskPagesRead) != wantMoved {
		t.Errorf("%d read commands moved %d pages, want %d moving %d",
			delta(sim.CtrDiskReads), delta(sim.CtrDiskPagesRead), wantCmds, wantMoved)
	}
	if delta(sim.CtrPageIns) != len(installed) {
		t.Errorf("vm.pageins grew by %d, want %d", delta(sim.CtrPageIns), len(installed))
	}
	if !o.mu.TryLock() {
		t.Fatal("object still locked after the fault")
	}
	o.mu.Unlock()

	// With the disk healthy again every mapped byte is the file's.
	for i := mapLo; i <= mapHi; i++ {
		if err := p.ReadBytes(at(i), got); err != nil || !bytes.Equal(got, want(i)) {
			t.Errorf("page %d afterwards: err=%v first byte %#x, want %#x", i, err, got[0], want(i)[0])
		}
	}
	busySweep(t, m, "at the end")
}

// coldFile boots a default-config machine with one cold 8-page file.
func coldFile(t *testing.T) (*System, *vmapi.Machine, *vfs.Vnode) {
	t.Helper()
	s, m := bootTest(t, 512)
	vn := mkfile(t, m, "/cold", 8, 0xC0)
	t.Cleanup(vn.Unref)
	return s, m, vn
}

// TestColdFileTouchClustersReads: read-touching a cold 8-page file
// through a default mapping takes two faults and two disk commands — the
// first fills the advice window ahead of page 0 and the lookahead maps
// it, the second fills what is left — where one page per pagein took
// eight of each.
func TestColdFileTouchClustersReads(t *testing.T) {
	s, m, vn := coldFile(t)
	p := newProc(t, s, "p")
	va, err := p.Mmap(0, 8*param.PageSize, param.ProtRead, vmapi.MapShared, vn, 0)
	if err != nil {
		t.Fatal(err)
	}
	before := m.Stats.Snapshot()
	b := make([]byte, 1)
	for i := 0; i < 8; i++ {
		if err := p.ReadBytes(va+param.VAddr(i)*param.PageSize, b); err != nil || b[0] != 0xC0+byte(i) {
			t.Fatalf("page %d: err=%v byte %#x", i, err, b[0])
		}
	}
	after := m.Stats.Snapshot()
	for name, want := range map[string]int64{sim.CtrFaults: 2, sim.CtrDiskReads: 2, sim.CtrDiskPagesRead: 8, sim.CtrPageIns: 8} {
		if got := after[name] - before[name]; got != want {
			t.Errorf("%s grew by %d, want %d", name, got, want)
		}
	}
}

// TestClusteredReadConcurrentFaulters: two processes sweep the same cold
// files at once, one upwards and one downwards, so their runs overlap
// and each drops the object lock for frames the other may be about to
// fill. Whoever installs a page first wins and the loser's frame goes
// back: no page is read twice, none stays Busy, no frame leaks.
func TestClusteredReadConcurrentFaulters(t *testing.T) {
	const files, pages = 16, 8
	s, m := bootTest(t, 1024)
	vns := make([]*vfs.Vnode, files)
	for f := range vns {
		vns[f] = mkfile(t, m, fmt.Sprintf("/f%d", f), pages, byte(f*pages))
		defer vns[f].Unref()
	}
	var procs [2]*Process
	var vas [2][files]param.VAddr
	for w := range procs {
		procs[w] = newProc(t, s, fmt.Sprintf("p%d", w))
		for f, vn := range vns {
			va, err := procs[w].Mmap(0, pages*param.PageSize, param.ProtRead, vmapi.MapShared, vn, 0)
			if err != nil {
				t.Fatal(err)
			}
			vas[w][f] = va
		}
	}
	before := m.Stats.Snapshot()
	freeBefore := m.Mem.FreePages()
	var wg sync.WaitGroup
	for w, p := range procs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			b := make([]byte, 1)
			for f := range vns {
				for i := 0; i < pages; i++ {
					pg := i
					if w == 1 {
						pg = pages - 1 - i
					}
					if err := p.ReadBytes(vas[w][f]+param.VAddr(pg)*param.PageSize, b); err != nil || b[0] != byte(f*pages+pg) {
						t.Errorf("p%d file %d page %d: err=%v byte %#x", w, f, pg, err, b[0])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	after := m.Stats.Snapshot()
	if moved := after[sim.CtrDiskPagesRead] - before[sim.CtrDiskPagesRead]; moved != files*pages {
		t.Errorf("%d pages read from disk, want %d (each page once)", moved, files*pages)
	}
	for _, p := range procs {
		p.Exit()
	}
	testutil.ShutdownSweep(t, s)
	if d := freeBefore - m.Mem.FreePages(); d != files*pages {
		t.Errorf("free frames fell by %d, want the %d file pages", d, files*pages)
	}
}
