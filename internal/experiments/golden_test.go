package experiments

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestPaperReportsMatchGoldens is the regression fence for every paper
// report: each quick-variant report (the variants CI runs) must stay
// byte-identical to its checked-in golden. Every report here runs on the
// simulated clock with one driver, so a diff means a change leaked into
// the deterministic path — an ordering change in the allocator, a stray
// counter or clock charge in a path the paper times, a changed default —
// and the paper numbers can no longer be compared across revisions.
//
// Regenerate a golden ONLY for an intentional, explained change to the
// experiment itself, never to absorb drift elsewhere.
func TestPaperReportsMatchGoldens(t *testing.T) {
	matchGoldens(t, "table1", "table2", "table3", "fig2", "fig5", "fig6", "datamove", "rc")
}

// TestPaperReportsByteIdenticalWithCachesOff keeps the historical fence
// for the per-CPU free-page caches under its own name: with AllocCaches=0
// (the default every paper experiment runs with) the allocator takes the
// single-pool path, so the three pre-caches goldens must still match.
func TestPaperReportsByteIdenticalWithCachesOff(t *testing.T) {
	matchGoldens(t, "table1", "table3", "fig5")
}

// TestPaperReportsByteIdenticalWithAutoTuneOff keeps the historical fence
// for the deleted control plane under its own name: every paper
// experiment now boots with no tuner at all, so the three pre-autotune
// goldens must still match — removing the plane moved no paper number.
func TestPaperReportsByteIdenticalWithAutoTuneOff(t *testing.T) {
	matchGoldens(t, "table1", "table3", "fig5")
}

// matchGoldens runs each quick-variant report in ids as a subtest and
// fails it unless the output is byte-identical to testdata/<id>.quick.golden.
func matchGoldens(t *testing.T, ids ...string) {
	t.Helper()
	for _, id := range ids {
		t.Run(id, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", id+".quick.golden"))
			if err != nil {
				t.Fatal(err)
			}
			r, ok := Lookup(id, true)
			if !ok {
				t.Fatalf("experiment %q not registered", id)
			}
			var sb strings.Builder
			if err := r.Run(&sb); err != nil {
				t.Fatal(err)
			}
			if sb.String() != string(want) {
				t.Errorf("report drifted from its golden:\n--- golden:\n%s\n--- got:\n%s",
					want, sb.String())
			}
		})
	}
}
