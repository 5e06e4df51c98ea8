package experiments

import (
	"reflect"
	"testing"

	"uvm/internal/bsdvm"
	"uvm/internal/sim"
	"uvm/internal/workload"
)

// TestCellsDeterministicSim holds the experiments' request streams to
// the bar workload.TestTrafficDeterministicSim sets for traffic: a
// single-client run repeated costs the same simulated time and moves
// every counter by the same amount. The anon-cycle stream is pressure's
// and reclaimbw's both (reclaimbw's sync-1w with the pagedaemon inline
// IS pressure's uvm-inline; with the daemon in its own goroutine, how
// far it runs ahead is the scheduler's choice and nothing repeats). It
// runs on a machine a quarter the experiments' size, so that one client
// alone overcommits it and reclaim is part of what must repeat.
func TestCellsDeterministicSim(t *testing.T) {
	small := overcommitMachine("", nil)
	small.RAMPages = anonCycleRegionPages / 2
	syncIO := objWBTuning("sync")
	for _, cell := range []struct {
		name string
		run  func() workload.Run
	}{
		{"pressure/uvm-inline", func() workload.Run { return anonCycle(small, uvmDeterministic, 1, 1500) }},
		{"pressure/bsdvm", func() workload.Run { return anonCycle(small, bsdvm.Boot, 1, 1500) }},
		{"objwb/sync/vnode", func() workload.Run { return objWBCycle("", "vnode", syncIO.Boot, 4) }},
		{"objwb/sync/aobj", func() workload.Run { return objWBCycle("", "aobj", syncIO.Boot, 4) }},
	} {
		t.Run(cell.name, func(t *testing.T) {
			var runs [2]workload.Result
			for i := range runs {
				var err error
				if runs[i], err = workload.Drive(cell.run()); err != nil {
					t.Fatal(err)
				}
			}
			a, b := runs[0], runs[1]
			if a.Stats.Get(sim.CtrPageOuts) == 0 {
				t.Fatal("no page ever went out: the cell measured nothing")
			}
			if a.Sim != b.Sim || !reflect.DeepEqual(a.Stats, b.Stats) {
				t.Errorf("runs diverged: sim %d vs %d, counters\n%v\nvs\n%v", a.Sim, b.Sim, a.Stats, b.Stats)
			}
		})
	}
}
