package uvm

import (
	"testing"

	"uvm/internal/sim"
)

// TestCachedCounterHandlesFeedStats guards the wiring between the
// cached sim.Counter handles resolved at boot and the string-named
// stats the reports read: a typo in one of the names at the BootConfig
// resolution site would silently split a counter into two cells, with
// the hot paths bumping one and the reports reading the other.
func TestCachedCounterHandlesFeedStats(t *testing.T) {
	s, m := bootTest(t, 256)
	defer s.Shutdown()

	handles := []struct {
		name string
		ctr  sim.Counter
	}{
		{sim.CtrFaults, s.ctrFaults},
		{sim.CtrFaultsRead, s.ctrFaultsRead},
		{sim.CtrFaultsWrite, s.ctrFaultsWrite},
		{"uvm.anon.alloc", s.ctrAnonAlloc},
		{"uvm.anon.live", s.ctrAnonLive},
		{"uvm.amap.alloc", s.ctrAmapAlloc},
		{"uvm.amap.live", s.ctrAmapLive},
		{"uvm.mapentry.alloc", s.ctrEntryAlloc},
		{"uvm.mapentry.live", s.ctrEntryLive},
		{"uvm.lookahead.mapped", s.ctrLookaheadMapped},
		{"uvm.cow.copies", s.ctrCowCopies},
		{"uvm.map.lockheld_ns", s.ctrMapLockHeld},
		{"uvm.map.lockheld_max_ns", s.ctrMapLockHeldMax},
		{sim.CtrPageIns, s.ctrPageIns},
		{sim.CtrPageOuts, s.ctrPageOuts},
		{sim.CtrObjWbClusters, s.ctrObjWbClusters},
		{sim.CtrObjWbPages, s.ctrObjWbPages},
		{sim.CtrPdRounds, s.ctrPdRounds},
		{sim.CtrPdDirect, s.ctrPdDirect},
		{sim.CtrPdWorkerRounds, s.ctrPdWorkerRounds},
		{"uvm.ubc.reads", s.ctrUbcReads},
		{"uvm.ubc.writes", s.ctrUbcWrites},
	}
	for _, h := range handles {
		before := m.Stats.Get(h.name)
		h.ctr.Inc()
		if got := m.Stats.Get(h.name); got != before+1 {
			t.Errorf("counter handle for %q: stat moved %d -> %d, want +1", h.name, before, got)
		}
	}
}
