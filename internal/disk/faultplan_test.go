package disk

import (
	"errors"
	"math"
	"testing"

	"uvm/internal/sim"
)

func pages(n int, fill byte) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = page(fill)
	}
	return out
}

// TestMidClusterErrorAccounting is the accounting regression: a command
// that fails at block k must charge only the k transferred pages, count
// only them, and leave the head at the failure point — the old code
// charged and counted the full command before even looking at the fail
// hooks.
func TestMidClusterErrorAccounting(t *testing.T) {
	d, clock, stats := newTestDisk(64)
	costs := sim.DefaultCosts()
	d.SetFaultPlan(NewFaultPlan(
		FaultRule{Kind: FaultWriteError, Block: 13},
	))

	// 8-page write at block 10 fails at block 13: 3 pages transfer.
	if err := d.WritePages(10, pages(8, 0x5a)); !errors.Is(err, ErrInjected) {
		t.Fatalf("mid-cluster fault not surfaced: %v", err)
	}
	want := costs.DiskOp + costs.DiskSeek + 3*costs.DiskPageIO
	if got := clock.Now(); got != want {
		t.Fatalf("failed command charged %v, want %v (3 pages, not 8)", got, want)
	}
	if got := stats.Get(sim.CtrDiskPagesWrite); got != 3 {
		t.Fatalf("pages-written counter = %d, want 3", got)
	}
	if got := stats.Get("disk.errors"); got != 1 {
		t.Fatalf("error counter = %d, want 1", got)
	}

	// The pages before the fault are durable, the rest never landed.
	d.SetFaultPlan(nil)
	bufs := pages(8, 0)
	if err := d.ReadPages(10, bufs); err != nil {
		t.Fatal(err)
	}
	for i, buf := range bufs {
		want := byte(0)
		if i < 3 {
			want = 0x5a
		}
		if buf[0] != want {
			t.Fatalf("block %d holds %#x, want %#x", 10+i, buf[0], want)
		}
	}

	// Head stopped after the 3 transferred pages: a follow-up command at
	// block 13 is sequential (no seek charged).
	d2, clock2, _ := newTestDisk(64)
	d2.SetFaultPlan(NewFaultPlan(FaultRule{Kind: FaultWriteError, Block: 13}))
	if err := d2.WritePages(10, pages(8, 1)); !errors.Is(err, ErrInjected) {
		t.Fatal(err)
	}
	d2.SetFaultPlan(nil)
	before := clock2.Now()
	if err := d2.WritePages(13, pages(1, 2)); err != nil {
		t.Fatal(err)
	}
	if got := clock2.Now() - before; got != costs.DiskOp+costs.DiskPageIO {
		t.Fatalf("head not at failure point: follow-up charged %v", got)
	}
}

// TestLegacyHookAccounting checks the same only-transferred-pages rule
// for the pre-plan FailRead/FailWrite closures.
func TestLegacyHookAccounting(t *testing.T) {
	d, clock, stats := newTestDisk(64)
	costs := sim.DefaultCosts()
	boom := errors.New("media error")
	d.FailRead = func(block int64) error {
		if block == 6 {
			return boom
		}
		return nil
	}
	if err := d.ReadPages(4, pages(4, 0)); !errors.Is(err, boom) {
		t.Fatalf("hook error not surfaced: %v", err)
	}
	if got := clock.Now(); got != costs.DiskOp+costs.DiskSeek+2*costs.DiskPageIO {
		t.Fatalf("failed read charged %v (2 pages transferred before block 6)", got)
	}
	if got := stats.Get(sim.CtrDiskPagesRead); got != 2 {
		t.Fatalf("pages-read counter = %d, want 2", got)
	}
}

// TestBufferValidationBeforeAccounting: a malformed request must not
// move the head, charge time, or bump counters — no command was issued.
func TestBufferValidationBeforeAccounting(t *testing.T) {
	d, clock, stats := newTestDisk(8)
	bufs := [][]byte{page(0), make([]byte, 7), page(0)}
	if err := d.WritePages(0, bufs); err == nil {
		t.Fatal("bad buffer accepted")
	}
	if clock.Now() != 0 {
		t.Fatalf("invalid command charged %v", clock.Now())
	}
	if stats.Get(sim.CtrDiskWrites) != 0 || stats.Get(sim.CtrDiskPagesWrite) != 0 {
		t.Fatal("invalid command counted")
	}
}

// TestTornWrite: the first TornPages pages of a torn cluster land, the
// rest fail, and the tear always loses at least the last page.
func TestTornWrite(t *testing.T) {
	d, _, _ := newTestDisk(64)
	d.SetFaultPlan(NewFaultPlan(
		FaultRule{Kind: FaultTornWrite, Block: BlockAny, TornPages: 2, Count: 1},
	))
	if err := d.WritePages(0, pages(5, 0x77)); !errors.Is(err, ErrInjected) {
		t.Fatalf("torn write not surfaced: %v", err)
	}
	bufs := pages(5, 0)
	if err := d.ReadPages(0, bufs); err != nil {
		t.Fatal(err)
	}
	for i, buf := range bufs {
		landed := buf[0] == 0x77
		if landed != (i < 2) {
			t.Fatalf("block %d landed=%v, want %v", i, landed, i < 2)
		}
	}

	// TornPages >= command length still fails the last page.
	d2, _, _ := newTestDisk(8)
	d2.SetFaultPlan(NewFaultPlan(
		FaultRule{Kind: FaultTornWrite, Block: BlockAny, TornPages: 99},
	))
	if err := d2.WritePages(0, pages(3, 1)); !errors.Is(err, ErrInjected) {
		t.Fatal("oversized tear must still fail")
	}
	buf := page(0)
	d2.SetFaultPlan(nil)
	if err := d2.ReadPages(2, [][]byte{buf}); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 0 {
		t.Fatal("torn write landed its last page")
	}
}

// TestAfterOpsAndCount: a rule skips its first AfterOps matching
// commands and stops after Count firings.
func TestAfterOpsAndCount(t *testing.T) {
	d, _, _ := newTestDisk(8)
	plan := NewFaultPlan(
		FaultRule{Kind: FaultReadError, Block: BlockAny, AfterOps: 2, Count: 2},
	)
	d.SetFaultPlan(plan)
	var errs int
	for i := 0; i < 6; i++ {
		if err := d.ReadPages(0, pages(1, 0)); err != nil {
			if !errors.Is(err, ErrInjected) {
				t.Fatalf("wrong error: %v", err)
			}
			errs++
		}
	}
	if errs != 2 {
		t.Fatalf("rule fired %d times, want 2 (after 2 clean ops)", errs)
	}
	if plan.Fired(0) != 2 {
		t.Fatalf("Fired = %d", plan.Fired(0))
	}
}

// TestDeviceDeath: death is sticky, charges nothing, and Dead() reports
// it to allocators.
func TestDeviceDeath(t *testing.T) {
	d, clock, stats := newTestDisk(8)
	d.SetFaultPlan(NewFaultPlan(
		FaultRule{Kind: FaultDeviceDeath, Block: BlockAny, AfterOps: 1},
	))
	if err := d.WritePages(0, pages(1, 1)); err != nil {
		t.Fatalf("first command should pass: %v", err)
	}
	if d.Dead() {
		t.Fatal("device dead before the death rule fired")
	}
	if err := d.ReadPages(0, pages(1, 0)); !errors.Is(err, ErrDeviceDead) {
		t.Fatalf("death not surfaced: %v", err)
	}
	if !d.Dead() {
		t.Fatal("Dead() false after death")
	}
	before := clock.Now()
	for i := 0; i < 3; i++ {
		if err := d.WriteBlocksDeferred(0, pages(1, 1)); !errors.Is(err, ErrDeviceDead) {
			t.Fatalf("dead device accepted a command: %v", err)
		}
	}
	if clock.Now() != before {
		t.Fatal("dead device charged time")
	}
	if got := stats.Get("disk.deaths"); got != 1 {
		t.Fatalf("death counter = %d", got)
	}

	// Kill() is the immediate form.
	d2, _, _ := newTestDisk(8)
	d2.Kill()
	if err := d2.ReadPages(0, pages(1, 0)); !errors.Is(err, ErrDeviceDead) {
		t.Fatalf("killed device still alive: %v", err)
	}
}

// TestCheckRangeOverflow: adversarial start/n combinations whose sum
// wraps int64 must be rejected, not wrapped into a "valid" range.
func TestCheckRangeOverflow(t *testing.T) {
	d, _, _ := newTestDisk(8)
	for _, tc := range []struct{ start, n int64 }{
		{math.MaxInt64, 1},
		{math.MaxInt64 - 1, 2},
		{1, math.MaxInt64},
		{math.MaxInt64, math.MaxInt64},
		{math.MinInt64, 1},
		{0, math.MinInt64},
	} {
		if err := d.checkRange(tc.start, tc.n); !errors.Is(err, ErrOutOfRange) {
			t.Fatalf("checkRange(%d, %d) = %v, want ErrOutOfRange", tc.start, tc.n, err)
		}
	}
	if err := d.checkRange(0, 8); err != nil {
		t.Fatalf("full-device range rejected: %v", err)
	}
}

// TestFaultKindString keeps the report labels stable.
func TestFaultKindString(t *testing.T) {
	want := map[FaultKind]string{
		FaultReadError:   "read-error",
		FaultWriteError:  "write-error",
		FaultTornWrite:   "torn-write",
		FaultDeviceDeath: "device-death",
	}
	for k, s := range want {
		if k.String() != s {
			t.Fatalf("%d.String() = %q, want %q", k, k.String(), s)
		}
	}
}

// TestPlanRulesEvaluatedInOrder: the first firing rule decides the
// command's fate even when a later rule also matches.
func TestPlanRulesEvaluatedInOrder(t *testing.T) {
	d, _, _ := newTestDisk(16)
	d.SetFaultPlan(NewFaultPlan(
		FaultRule{Kind: FaultTornWrite, Block: BlockAny, TornPages: 1, Count: 1},
		FaultRule{Kind: FaultDeviceDeath, Block: BlockAny},
	))
	if err := d.WritePages(0, pages(3, 1)); !errors.Is(err, ErrInjected) {
		t.Fatalf("first rule should win: %v", err)
	}
	if d.Dead() {
		t.Fatal("second rule fired on the same command")
	}
}

// TestBlockSpecificReadFault: a rule naming a block inside the command
// fails it exactly at that block; the earlier pages land in the buffers.
func TestBlockSpecificReadFault(t *testing.T) {
	d, _, _ := newTestDisk(16)
	if err := d.WritePages(0, pages(6, 0x42)); err != nil {
		t.Fatal(err)
	}
	d.SetFaultPlan(NewFaultPlan(FaultRule{Kind: FaultReadError, Block: 4}))
	bufs := pages(6, 0xee)
	if err := d.ReadPages(0, bufs); !errors.Is(err, ErrInjected) {
		t.Fatalf("block fault not surfaced: %v", err)
	}
	for i, buf := range bufs {
		filled := buf[0] == 0x42
		if filled != (i < 4) {
			t.Fatalf("buffer %d filled=%v, want %v", i, filled, i < 4)
		}
	}
}
