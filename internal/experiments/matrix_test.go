package experiments

import (
	"strings"
	"testing"
)

// TestMatrixCells runs one quick cell per workload on the default
// profile plus a fault-injected reclaim cell, checking each produces a
// report and a clean Busy sweep. The full profile × workload sweep runs
// in CI's matrix smoke job; this keeps the runner itself honest under
// plain `go test`.
func TestMatrixCells(t *testing.T) {
	cells := RunMatrix(MatrixWorkloads(), []string{"hdd97"}, true, true)
	want := len(MatrixWorkloads()) + 1 // + the fault cell
	if len(cells) != want {
		t.Fatalf("got %d cells, want %d", len(cells), want)
	}
	for _, c := range cells {
		if c.Err != nil {
			t.Errorf("cell %s failed: %v\nreport:\n%s", c.Name(), c.Err, c.Report)
		}
		if c.BusyLeaked != 0 {
			t.Errorf("cell %s leaked %d Busy pages", c.Name(), c.BusyLeaked)
		}
		if !strings.Contains(c.Report, "ok (busy sweep clean)") {
			t.Errorf("cell %s report missing success marker:\n%s", c.Name(), c.Report)
		}
	}
}

// TestMatrixProfilesDiffer checks the profiles actually change the
// machine: the same objwb cell must report different simulated
// throughput on hdd97 and ramdisk (the latter's I/O is nearly free).
func TestMatrixProfilesDiffer(t *testing.T) {
	hdd, err := objWBRun("hdd97", "vnode", objWBTuning("async-cluster"), 2)
	if err != nil {
		t.Fatalf("hdd97: %v", err)
	}
	ram, err := objWBRun("ramdisk", "vnode", objWBTuning("async-cluster"), 2)
	if err != nil {
		t.Fatalf("ramdisk: %v", err)
	}
	if ram.Sim >= hdd.Sim {
		t.Errorf("ramdisk sim time %v not below hdd97 %v", ram.Sim, hdd.Sim)
	}
}
