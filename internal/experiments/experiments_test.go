package experiments

import (
	"strings"
	"testing"
	"time"

	"uvm/internal/bsdvm"
	"uvm/internal/disk"
	"uvm/internal/param"
	"uvm/internal/sim"
	"uvm/internal/vmapi"
	"uvm/internal/vmapi/testutil"
)

// The experiment tests verify the paper's qualitative claims — who wins,
// where the knees are — on trimmed parameter sweeps.

func TestTable1MatchesPaperRows(t *testing.T) {
	rows, err := Table1()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.UVM >= r.BSD {
			t.Errorf("%s: UVM %d >= BSD %d", r.Operation, r.UVM, r.BSD)
		}
	}
	// The per-process rows are modelled mechanically and must be exact.
	if rows[0].BSD != 11 || rows[0].UVM != 6 {
		t.Errorf("cat row = %d/%d, want 11/6", rows[0].BSD, rows[0].UVM)
	}
	if rows[1].BSD != 21 || rows[1].UVM != 12 {
		t.Errorf("od row = %d/%d, want 21/12", rows[1].BSD, rows[1].UVM)
	}
	if rows[2].BSD != 50 || rows[2].UVM != 26 {
		t.Errorf("single-user row = %d/%d, want 50/26", rows[2].BSD, rows[2].UVM)
	}
	// Scenario rows: within 10% of the paper.
	for _, r := range rows[3:] {
		if !within(r.BSD, r.PaperBSD, 0.10) || !within(r.UVM, r.PaperUVM, 0.10) {
			t.Errorf("%s: %d/%d vs paper %d/%d (>10%% off)",
				r.Operation, r.BSD, r.UVM, r.PaperBSD, r.PaperUVM)
		}
	}
}

func within(got, want int, tol float64) bool {
	d := float64(got-want) / float64(want)
	if d < 0 {
		d = -d
	}
	return d <= tol
}

func TestTable2MatchesPaper(t *testing.T) {
	rows, err := Table2()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.BSD != r.PaperBSD {
			t.Errorf("%s: BSD faults %d, paper %d", r.Command, r.BSD, r.PaperBSD)
		}
		if r.UVM != r.PaperUVM {
			t.Errorf("%s: UVM faults %d, paper %d", r.Command, r.UVM, r.PaperUVM)
		}
	}
}

func TestTable3Orderings(t *testing.T) {
	rows, err := Table3(100)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]T3Row{}
	for _, r := range rows {
		if r.UVM >= r.BSD {
			t.Errorf("%s: UVM %v >= BSD %v (paper: UVM wins every case)", r.Case, r.UVM, r.BSD)
		}
		byName[r.Case] = r
	}
	// The read/private anomaly: under BSD it costs much more than
	// read/shared (the needless shadow object); under UVM they are close.
	bAnom := float64(byName["read/private file"].BSD) / float64(byName["read/shared file"].BSD)
	uAnom := float64(byName["read/private file"].UVM) / float64(byName["read/shared file"].UVM)
	if bAnom < 1.2 {
		t.Errorf("BSD read/private should clearly exceed read/shared: ratio %.2f", bAnom)
	}
	if uAnom > 1.1 {
		t.Errorf("UVM read/private should track read/shared: ratio %.2f", uAnom)
	}
	// Zero-fill reads and writes are near-identical under UVM (49 vs 48).
	zf := byName["read/zero fill"].UVM - byName["write/zero fill"].UVM
	if zf < 0 {
		zf = -zf
	}
	if zf > byName["write/zero fill"].UVM/10 {
		t.Errorf("UVM zero-fill read/write should be close: %v vs %v",
			byName["read/zero fill"].UVM, byName["write/zero fill"].UVM)
	}
}

func TestFigure2Knee(t *testing.T) {
	points, err := Figure2([]int{50, 200})
	if err != nil {
		t.Fatal(err)
	}
	small, large := points[0], points[1]
	// Below the cache limit the systems are comparable.
	if small.BSD > 3*small.UVM {
		t.Errorf("below the limit BSD (%v) should be near UVM (%v)", small.BSD, small.UVM)
	}
	// Beyond it, BSD VM falls off the cliff; UVM scales linearly.
	if large.BSD < 50*large.UVM {
		t.Errorf("beyond the limit BSD (%v) should be disk-bound vs UVM (%v)", large.BSD, large.UVM)
	}
	if large.UVM > 10*small.UVM {
		t.Errorf("UVM should stay at memory speed: %v -> %v", small.UVM, large.UVM)
	}
}

func TestFigure5Crossover(t *testing.T) {
	points, err := Figure5([]int{16, 44})
	if err != nil {
		t.Fatal(err)
	}
	within, beyond := points[0], points[1]
	// Below RAM the curves coincide.
	r := float64(within.BSD) / float64(within.UVM)
	if r > 1.3 || r < 0.7 {
		t.Errorf("below RAM the systems should match: BSD %v UVM %v", within.BSD, within.UVM)
	}
	// Beyond RAM, BSD VM's unclustered pageout is several times slower.
	if beyond.BSD < 3*beyond.UVM {
		t.Errorf("beyond RAM BSD (%v) should be >3x UVM (%v)", beyond.BSD, beyond.UVM)
	}
}

func TestFigure6Orderings(t *testing.T) {
	points, err := Figure6([]int{0, 8}, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range points {
		if p.MB == 0 {
			continue
		}
		if p.UVMTouched >= p.BSDTouched {
			t.Errorf("%dMB: UVM touched %v >= BSD %v", p.MB, p.UVMTouched, p.BSDTouched)
		}
		if p.UVMPlain > p.BSDPlain {
			t.Errorf("%dMB: UVM plain %v > BSD %v", p.MB, p.UVMPlain, p.BSDPlain)
		}
		if p.BSDTouched < 5*p.BSDPlain {
			t.Errorf("%dMB: touched (%v) should dwarf untouched (%v)", p.MB, p.BSDTouched, p.BSDPlain)
		}
	}
	// Linear growth: the 8 MB touched point must dwarf the 0 MB one.
	if points[1].BSDTouched < 100*points[0].BSDTouched {
		t.Errorf("fork cost not growing with memory: %v -> %v",
			points[0].BSDTouched, points[1].BSDTouched)
	}
}

func TestDataMovementSavings(t *testing.T) {
	rows, err := DataMovement([]int{1, 256})
	if err != nil {
		t.Fatal(err)
	}
	one, big := rows[0], rows[1]
	// Paper: 26% saving at one page, 78% at 256. Accept a generous band
	// around each, but require monotone improvement and the right scale.
	if one.LoanSaving < 0.10 || one.LoanSaving > 0.45 {
		t.Errorf("1-page loan saving %.0f%%, paper says 26%%", one.LoanSaving*100)
	}
	if big.LoanSaving < 0.65 || big.LoanSaving > 0.90 {
		t.Errorf("256-page loan saving %.0f%%, paper says 78%%", big.LoanSaving*100)
	}
	if big.LoanSaving <= one.LoanSaving {
		t.Error("saving must grow with transfer size")
	}
	// Map entry passing cost is size-independent; transfer is per-page
	// but far below copy.
	if big.MEP > 2*one.MEP {
		t.Errorf("MEP should be ~size-independent: %v vs %v", one.MEP, big.MEP)
	}
	if big.TransferRcv > big.Copy/3 {
		t.Errorf("transfer (%v) should be far cheaper than copy (%v)", big.TransferRcv, big.Copy)
	}
}

func TestRCDirection(t *testing.T) {
	bsd, uv, err := RC()
	if err != nil {
		t.Fatal(err)
	}
	if uv >= bsd {
		t.Errorf("UVM rc time %v >= BSD %v; paper reports a 10%% improvement", uv, bsd)
	}
}

func TestAllRunnersExecute(t *testing.T) {
	if testing.Short() {
		t.Skip("full runner sweep in short mode")
	}
	for _, r := range All(true) {
		r := r
		t.Run(r.ID, func(t *testing.T) {
			var sb strings.Builder
			start := time.Now()
			if err := r.Run(&sb); err != nil {
				t.Fatalf("%s: %v", r.ID, err)
			}
			if sb.Len() == 0 {
				t.Fatalf("%s: empty report", r.ID)
			}
			t.Logf("%s in %v", r.ID, time.Since(start))
		})
	}
}

// TestLookup pins the registry to the paper: the eight reports, in paper
// order, and nothing else — load beyond the paper is bench/uvmperf's.
func TestLookup(t *testing.T) {
	var ids []string
	for _, r := range All(true) {
		ids = append(ids, r.ID)
	}
	if got, want := strings.Join(ids, " "), "table1 table2 table3 fig2 fig5 fig6 datamove rc"; got != want {
		t.Errorf("All(true) ids = %q, want %q", got, want)
	}
	if _, ok := Lookup("fig5", true); !ok {
		t.Error("fig5 not found")
	}
	for _, id := range []string{"nope", "traffic"} {
		if _, ok := Lookup(id, true); ok {
			t.Errorf("Lookup(%q) found a runner", id)
		}
	}
}

func TestExperimentsDeterministic(t *testing.T) {
	// The whole point of the simulated clock: identical runs produce
	// byte-identical reports. Guard it for a representative experiment of
	// each kind (counts, times, paging).
	for _, id := range []string{"table1", "table3", "fig5"} {
		id := id
		t.Run(id, func(t *testing.T) {
			r, ok := Lookup(id, true)
			if !ok {
				t.Fatal("missing runner")
			}
			var a, b strings.Builder
			if err := r.Run(&a); err != nil {
				t.Fatal(err)
			}
			if err := r.Run(&b); err != nil {
				t.Fatal(err)
			}
			if a.String() != b.String() {
				t.Fatalf("non-deterministic output:\n--- run1:\n%s\n--- run2:\n%s", a.String(), b.String())
			}
		})
	}
}

// withProfile runs f with every experiment machine booting the named
// profile, and restores the default afterwards.
func withProfile(t *testing.T, prof string, f func()) {
	t.Helper()
	if err := SetProfile(prof); err != nil {
		t.Fatal(err)
	}
	defer SetProfile("")
	f()
}

// TestMatrixCells runs the profile matrix uvmbench -profile offers: every
// paper report on every machine profile, plus one fault cell per profile
// that pages the paper's 32 MB machine past RAM and back under a swap
// plan of torn cluster writes, write errors and read errors. A failed
// access is the behaviour under test, so it is logged, not fatal; each
// fault cell must see every rule fire and end with a clean Busy sweep.
func TestMatrixCells(t *testing.T) {
	const mb = 40
	for _, prof := range sim.Profiles() {
		t.Run(prof, func(t *testing.T) {
			withProfile(t, prof, func() {
				for _, r := range All(true) {
					var sb strings.Builder
					if err := r.Run(&sb); err != nil {
						t.Errorf("%s: %v", r.ID, err)
					} else if sb.Len() == 0 {
						t.Errorf("%s: empty report", r.ID)
					}
				}
				cfg := stdConfig()
				bsdPlan, uvmPlan := matrixFaultPlan(), matrixFaultPlan()
				cfg.SwapFaultPlan = bsdPlan
				bsd := bsdvm.Boot(vmapi.NewMachine(cfg))
				cfg.SwapFaultPlan = uvmPlan
				uv := uvmDeterministic(vmapi.NewMachine(cfg))
				for i, sys := range []vmapi.System{bsd, uv} {
					plan := []*disk.FaultPlan{bsdPlan, uvmPlan}[i]
					p, err := sys.NewProcess("allocator")
					if err != nil {
						t.Fatal(err)
					}
					size := param.VSize(mb) << 20
					va, err := p.Mmap(0, size, param.ProtRW, vmapi.MapAnon|vmapi.MapPrivate, nil, 0)
					if err != nil {
						t.Fatal(err)
					}
					failed := 0
					for pass := 0; pass < 2; pass++ {
						for off := param.VSize(0); off < size; off += param.PageSize {
							if err := p.WriteBytes(va+param.VAddr(off), []byte{byte(1 + pass)}); err != nil {
								failed++
							}
						}
					}
					for j, kind := range []string{"torn write", "write error", "read error"} {
						if plan.Fired(j) == 0 {
							t.Errorf("%s: no %s fired", sys.Name(), kind)
						}
					}
					t.Logf("%s: fired torn=%d write=%d read=%d, failed accesses %d",
						sys.Name(), plan.Fired(0), plan.Fired(1), plan.Fired(2), failed)
					p.Exit()
					testutil.ShutdownSweep(t, sys)
				}
			})
		})
	}
}

// matrixFaultPlan is the fault cell's swap plan: a torn cluster write,
// then transient write and read errors, each count-limited so the system
// has to absorb every class and then recover. Fresh per machine — plans
// hold per-device trigger state.
func matrixFaultPlan() *disk.FaultPlan {
	return disk.NewFaultPlan(
		disk.FaultRule{Kind: disk.FaultTornWrite, Block: disk.BlockAny, AfterOps: 8, Count: 3, TornPages: 2},
		disk.FaultRule{Kind: disk.FaultWriteError, Block: disk.BlockAny, AfterOps: 15, Count: 2},
		disk.FaultRule{Kind: disk.FaultReadError, Block: disk.BlockAny, AfterOps: 10, Count: 3},
	)
}

// TestMatrixProfilesDiffer checks the profiles actually change the
// machine: the same Figure 5 point past RAM must cost both systems less
// simulated time on ramdisk than on hdd97 (ramdisk I/O is nearly free).
func TestMatrixProfilesDiffer(t *testing.T) {
	point := func(prof string) (p F5Point) {
		withProfile(t, prof, func() {
			points, err := Figure5([]int{40})
			if err != nil {
				t.Fatalf("%s: %v", prof, err)
			}
			p = points[0]
		})
		return p
	}
	hdd, ram := point("hdd97"), point("ramdisk")
	if ram.BSD >= hdd.BSD {
		t.Errorf("BSD VM: ramdisk sim time %v not below hdd97 %v", ram.BSD, hdd.BSD)
	}
	if ram.UVM >= hdd.UVM {
		t.Errorf("UVM: ramdisk sim time %v not below hdd97 %v", ram.UVM, hdd.UVM)
	}
}
