package main

import (
	"math"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"uvm/internal/sim"
)

func TestPickTail(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{19, 0}, {20, 0.5}, {99, 0.5}, {100, 0.9}, {999, 0.9}, {1000, 0.99},
		{9999, 0.99}, {10000, 0.999}, {100000, 0.9999}, {5000000, 0.99999},
	} {
		if got := pickTail(c.n); got != c.want {
			t.Errorf("pickTail(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestQuantileNearestRank(t *testing.T) {
	s := make([]int32, 100)
	for i := range s {
		s[i] = int32(i + 1)
	}
	for q, want := range map[float64]int32{0.5: 50, 0.99: 99, 0.999: 100, 0: 1, 1: 100} {
		if got := quantile(s, q); got != want {
			t.Errorf("quantile(1..100, %g) = %d, want %d", q, got, want)
		}
	}
}

func TestWindowedTakesMediansOverSlices(t *testing.T) {
	// Ten 1-second slices; slice w holds 100 requests of latency
	// (w+1) us, and slice 9 has 50 failed requests on top.
	ph := &phase{wall: 10 * time.Second}
	for w := 0; w < windows; w++ {
		for i := 0; i < 100; i++ {
			ph.lat = append(ph.lat, int32(w+1)*1000)
			ph.endUs = append(ph.endUs, uint32(w*1000000+i*10000))
		}
	}
	for i := 0; i < 50; i++ {
		ph.lat = append(ph.lat, failedLatency)
		ph.endUs = append(ph.endUs, 10000000) // at the very end: clamped into slice 9
	}
	rate, p50, p99 := windowed(ph)
	if rate != 100 || p50 != 5500 || p99 != 5500 {
		t.Errorf("windowed = %g req/s, p50 %g ns, p99 %g ns; want 100, 5500, 5500", rate, p50, p99)
	}
}

func TestSelfTime(t *testing.T) {
	parent := interval{100, 200}
	for _, c := range []struct {
		name     string
		children []interval
		want     int64
	}{
		{"no children", nil, 100},
		{"sequential", []interval{{110, 120}, {130, 150}}, 70},
		{"overlapping", []interval{{110, 140}, {130, 150}}, 60},
		{"nested", []interval{{110, 150}, {120, 130}}, 60},
		{"identical twice", []interval{{110, 150}, {110, 150}}, 60},
		{"sticks out of the parent", []interval{{90, 120}, {190, 250}}, 70},
		{"covers the parent", []interval{{50, 300}}, 0},
		{"empty child", []interval{{120, 120}}, 100},
	} {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: selfTime = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestStreamsFollowTheSeed(t *testing.T) {
	for _, w := range workloads {
		names := corpusNames(w)
		h1 := streamHash(genStreams(w, 1, numClients), names)
		if again := streamHash(genStreams(w, 1, numClients), names); again != h1 {
			t.Errorf("%s: seed 1 gave two different streams", w.name)
		}
		if h2 := streamHash(genStreams(w, 2, numClients), names); h2 == h1 {
			t.Errorf("%s: seeds 1 and 2 gave the same stream", w.name)
		}
		checked := 0
		for _, r := range genStreams(w, 1, 1)[0] {
			if r.Check {
				checked++
			}
		}
		if checked < streamLen/oracleEvery {
			t.Errorf("%s: %d oracle requests in %d, want at least one in %d", w.name, checked, streamLen, oracleEvery)
		}
	}
}

// TestZipfMatchesClosedForm checks the sampler against the distribution
// internal/workload's traffic driver draws from: P(i) ∝ 1/(i+1)^s.
func TestZipfMatchesClosedForm(t *testing.T) {
	const n, draws = 64, 400000
	for _, s := range []float64{0, 1} {
		z := newZipf(n, s)
		r := sim.NewRNG(7)
		hits := make([]int, n)
		for i := 0; i < draws; i++ {
			hits[z.sample(r)]++
		}
		total := 0.0
		for i := 0; i < n; i++ {
			total += 1 / math.Pow(float64(i+1), s)
		}
		for i := 0; i < n; i++ {
			p := 1 / math.Pow(float64(i+1), s) / total
			got := float64(hits[i]) / draws
			// Five standard deviations of a binomial share.
			if tol := 5 * math.Sqrt(p*(1-p)/draws); math.Abs(got-p) > tol {
				t.Errorf("s=%g: P(%d) = %.5f, want %.5f ± %.5f", s, i, got, p, tol)
			}
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %g %g %g, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	q1, q2, q3 = quartiles([]float64{1, 2})
	if q1 != 0.75 || q2 != 1.5 || q3 != 2.25 {
		t.Errorf("quartiles(1,2) = %g %g %g, want 0.75 1.5 2.25", q1, q2, q3)
	}
}

// synthSet builds a set in which every workload reports metric name with
// the given values, one run per value.
func synthSet(name string, values ...float64) *set {
	s := &set{}
	for _, w := range workloads {
		for _, v := range values {
			s.Runs = append(s.Runs, &record{Workload: w.name, Metrics: map[string]metric{name: {v, "x"}}})
		}
	}
	// A traced run must be ignored.
	s.Runs = append(s.Runs, &record{Workload: workloads[0].name, Trace: 1,
		Metrics: map[string]metric{name: {1e9, "x"}}})
	return s
}

func TestCompareVerdicts(t *testing.T) {
	lower := bound{Name: "lat", Better: "lower", Bound: 0.08}
	higher := bound{Name: "rate", Better: "higher", Bound: 0.08}
	for _, c := range []struct {
		name string
		bd   bound
		a, b []float64
		want string
	}{
		{"unchanged", lower, []float64{100, 101, 102}, []float64{101, 102, 103}, verdictOK},
		{"better", lower, []float64{100, 101, 102}, []float64{50, 51, 52}, verdictOK},
		{"worse within the bound", lower, []float64{100, 101, 102}, []float64{106, 107, 108}, verdictOK},
		{"worse beyond the bound", lower, []float64{100, 101, 102}, []float64{120, 121, 122}, verdictRegressed},
		{"rate fell beyond the bound", higher, []float64{100, 101, 102}, []float64{80, 81, 82}, verdictRegressed},
		{"rate rose", higher, []float64{100, 101, 102}, []float64{120, 121, 122}, verdictOK},
		{"spread wider than the bound", lower, []float64{80, 100, 120}, []float64{90, 101, 125}, verdictUnresolved},
		{"wide spread but every run better", lower, []float64{80, 100, 120}, []float64{40, 50, 60}, verdictOK},
		{"wide spread and worse", lower, []float64{80, 100, 120}, []float64{100, 130, 160}, verdictUnresolved},
	} {
		if got := judge(c.a, c.b, c.bd); got.verdict != c.want {
			t.Errorf("%s: verdict %s, want %s (%+v)", c.name, got.verdict, c.want, got)
		}
	}

	var out strings.Builder
	regressed, err := compareSets(&out, []bound{lower}, synthSet("lat", 100, 101, 102), synthSet("lat", 130, 131, 132))
	if err != nil || !regressed {
		t.Errorf("compareSets: regressed=%v err=%v, want a regression", regressed, err)
	}
	if n := strings.Count(out.String(), verdictRegressed); n != len(workloads)+1 {
		t.Errorf("compareSets printed %d regressed rows, want %d plus the summary:\n%s", n-1, len(workloads), out.String())
	}
	regressed, err = compareSets(&out, []bound{lower}, synthSet("lat", 100, 101, 102), synthSet("lat", 100, 101, 103))
	if err != nil || regressed {
		t.Errorf("compareSets on equal sets: regressed=%v err=%v", regressed, err)
	}
	if _, err = compareSets(&out, []bound{higher}, synthSet("lat", 1), synthSet("lat", 1)); err == nil {
		t.Error("compareSets accepted sets that lack the bounded metric")
	}
}

// TestWorkloadsServeCleanly drives every workload briefly with the
// tracer on and checks what the harness promises about a run: no failed
// request, spans that account for the request time, and a machine that
// tears down with no Busy page and no live swap slot.
func TestWorkloadsServeCleanly(t *testing.T) {
	for _, w := range workloads {
		streams := genStreams(w, 1, 1)
		r, _, err := startRun(w, defaultVariant, streams, corpusNames(w), 0, true)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		ph := r.drive(400, 0)
		if ph.failed != 0 {
			t.Errorf("%s: %d of %d requests failed, first: %v", w.name, ph.failed, ph.attempted, ph.firstErr)
		}
		tr := r.clients[0].tr
		spans := tr.selfNs
		for k := range tr.agg {
			spans += tr.agg[k].sumNs
		}
		if tr.requests != int64(ph.attempted) || spans != tr.reqNs {
			t.Errorf("%s: spans plus self time = %d ns over %d requests, request spans = %d ns over %d",
				w.name, spans, tr.requests, tr.reqNs, ph.attempted)
		}
		if err := r.finish(); err != nil {
			t.Errorf("%s: %v", w.name, err)
		}
	}
}

// TestSameSeedSameSimulation: with a fixed request count the simulated
// machine repeats exactly on anon_fault.
func TestSameSeedSameSimulation(t *testing.T) {
	w := findWorkload("anon_fault")
	var sims []time.Duration
	var faults []int64
	for i := 0; i < 2; i++ {
		r, _, err := startRun(w, defaultVariant, genStreams(w, 1, numClients), nil, 20, false)
		if err != nil {
			t.Fatal(err)
		}
		ph := r.drive(200, 0)
		sims = append(sims, ph.sim)
		faults = append(faults, ph.counters[sim.CtrFaults])
		if err := r.finish(); err != nil {
			t.Error(err)
		}
	}
	if sims[0] != sims[1] || faults[0] != faults[1] || faults[0] == 0 {
		t.Errorf("two runs of seed 1: simulated %v vs %v, faults %d vs %d", sims[0], sims[1], faults[0], faults[1])
	}
}

// TestBenchmarkJSONNamesWhatRuns keeps BENCHMARK.json honest: its
// workloads, end-to-end metrics and per-layer metrics are exactly what
// the two kinds of run report, unit for unit.
func TestBenchmarkJSONNamesWhatRuns(t *testing.T) {
	var bench struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []bound `json:"end_to_end"`
		PerLayer  []bound `json:"per_layer"`
	}
	if err := readJSON("../../BENCHMARK.json", &bench); err != nil {
		t.Fatal(err)
	}
	if len(bench.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, uvmperf %d", len(bench.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bench.Workloads[i].Name != w.name || bench.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json says %q (%q), uvmperf %q (%q)",
				i, bench.Workloads[i].Name, bench.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters, the contract allows 200", w.name, len(w.why))
		}
	}

	w := findWorkload("file_write")
	o := options{seed: 1, requests: 5000, outDir: t.TempDir(), unitBudget: time.Millisecond}
	for trace, want := range [][]bound{bench.EndToEnd, bench.PerLayer} {
		o.trace = trace
		rec := runOne(w, o)
		if !rec.Correct || rec.Failed != 0 {
			t.Errorf("trace %d: correct=%v failed=%d: %s %s", trace, rec.Correct, rec.Failed, rec.Error, rec.FirstFail)
		}
		var got, listed []string
		for name, m := range rec.Metrics {
			got = append(got, name+" "+m.Unit)
		}
		for _, b := range want {
			listed = append(listed, b.Name+" "+b.Unit)
		}
		sort.Strings(got)
		sort.Strings(listed)
		if strings.Join(got, "\n") != strings.Join(listed, "\n") {
			t.Errorf("trace %d reports\n%s\nBENCHMARK.json lists\n%s", trace, strings.Join(got, "\n"), strings.Join(listed, "\n"))
		}
	}
	if _, err := os.Stat(o.outDir + "/trace-file_write.json"); err != nil {
		t.Errorf("the traced run wrote no trace file: %v", err)
	}
}
