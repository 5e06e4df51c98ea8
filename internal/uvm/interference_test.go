package uvm

import (
	"sync/atomic"
	"testing"
	"time"

	"uvm/internal/param"
	"uvm/internal/sim"
	"uvm/internal/vmapi"
)

// reclaimInterference sums the counters that record a collision with
// in-flight reclaim I/O: sleeps on an object page whose writeback is on
// the wire (waitObjPageIdle) plus allocations that blocked on the
// pagedaemon's round.
func reclaimInterference(st *sim.Stats) int64 {
	return st.Get(sim.CtrObjWbWaits) + st.Get(sim.CtrPdBlocked)
}

// TestTrafficFaultCountsWritebackInterference pins down what reclaim
// interference means on the writeback side: a tenant faulting a page
// whose contents are on the wire (an asynchronous msync flush owns it,
// Busy set) must block in waitObjPageIdle until the completion — and
// that block is visible in reclaimInterference. The gates make the race
// deterministic: wbGate holds every flush completion, msyncGate runs
// once the clusters are submitted, so the tenant's fault provably lands
// while the I/O is in flight. Removing the fault path's busy-wait
// (fault.go's Busy loop) fails this test twice over — the fault
// completes while the flush owns the page, and the interference delta
// stays zero.
func TestTrafficFaultCountsWritebackInterference(t *testing.T) {
	s, m := bootWb(t, 256, func(c *Config) {
		c.AsyncWriteback = true
		c.WritebackCluster = 8
	})
	vn := mkfile(t, m, "/traffic-busy", 4, 0)
	defer vn.Unref()

	// Tenant 0 dirties the shared file page and will msync it.
	t0 := newProc(t, s, "tenant0")
	va, err := t0.Mmap(0, 4*param.PageSize, param.ProtRW, vmapi.MapShared, vn, 0)
	if err != nil {
		t.Fatal(err)
	}
	dirtyPages(t, t0, va, 0)

	// Tenant 1 maps the same file read-only before the flush — a
	// file-serve shape — but faults nothing yet.
	t1 := newProc(t, s, "tenant1")
	tva, err := t1.Mmap(0, 4*param.PageSize, param.ProtRead, vmapi.MapShared, vn, 0)
	if err != nil {
		t.Fatal(err)
	}

	base := reclaimInterference(m.Stats)
	release := make(chan struct{})
	s.wbGate = func() { <-release }
	defer func() { s.wbGate = nil }()

	var faultErr error
	var faultDone atomic.Bool
	doneCh := make(chan struct{})
	s.msyncGate = func() {
		// Clusters submitted, completions held at the gate: tenant 1's
		// read fault on the busy page must block, and the block must
		// count as interference.
		go func() {
			faultErr = t1.Access(tva, false)
			faultDone.Store(true)
			close(doneCh)
		}()
		deadline := time.Now().Add(5 * time.Second)
		for reclaimInterference(m.Stats) == base {
			if time.Now().After(deadline) {
				t.Error("tenant fault never blocked on the in-flight writeback (no interference counted)")
				break
			}
			time.Sleep(time.Millisecond)
		}
		if faultDone.Load() {
			t.Errorf("tenant fault completed while the flush owned the page (err=%v)", faultErr)
		}
		close(release) // deliver the completion; the tenant wakes after it
	}
	defer func() { s.msyncGate = nil }()

	if err := t0.Msync(va, param.PageSize); err != nil {
		t.Fatal(err)
	}
	<-doneCh
	if faultErr != nil {
		t.Fatalf("blocked tenant fault failed: %v", faultErr)
	}
	if d := reclaimInterference(m.Stats) - base; d < 1 {
		t.Errorf("reclaim-interference delta = %d, want >= 1", d)
	}
}
