// Command uvmperf is the repository's benchmark: five closed-loop VM
// workloads driven through the public vmapi.Process / vfs.FS API, six
// end-to-end metrics per workload from an untraced run, and a per-layer
// table (call spans, counter deltas, unit costs, reference rows) from a
// separate traced run. Host wall-clock time and the modelled machine's
// simulated time are reported side by side and every row says which it
// is. See bench/README.md.
//
// Modes:
//
//	uvmperf -workload W -seed N -seconds S -trace 0|1
//	    one run of one workload; the last line of standard output is the
//	    result object BENCHMARK.json's contract asks for.
//	uvmperf [-runs R] [-out FILE]
//	    every workload, R untraced runs and one traced run each, every
//	    run in a child process; writes the set to FILE.
//	uvmperf -compare A.json B.json
//	    compares two sets against the bounds in BENCHMARK.json.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// options are one run's settings.
type options struct {
	seed     uint64
	dur      time.Duration // timed-phase length; ignored when requests > 0
	requests int           // fixed timed-phase request count per client (0 = time-bound)
	trace    int
	outDir   string
	// unitBudget is how long each unit-cost micro-timing runs.
	unitBudget time.Duration
}

// warmup is the untimed warm-up length per client: the workload's
// constant in a time-bound run, a tenth of the requests in a fixed-count
// run.
func (o options) warmup(w *workload) int {
	if o.requests > 0 {
		return o.requests / 10
	}
	return w.warmup
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is everything one run of one workload reports. The contract's
// result object is a projection of it (result).
type record struct {
	Workload   string            `json:"workload"`
	Trace      int               `json:"trace"`
	Seed       uint64            `json:"seed"`
	Seconds    float64           `json:"seconds"`
	Requests   int               `json:"requests_per_client"`
	StreamHash string            `json:"stream_hash"`
	Correct    bool              `json:"correct"`
	Error      string            `json:"error,omitempty"`
	Attempted  int               `json:"attempted"`
	Failed     int               `json:"failed"`
	FirstFail  string            `json:"first_failure,omitempty"`
	Spurious   int               `json:"spurious_faults_retried"`
	Samples    int               `json:"latency_samples"`
	Metrics    map[string]metric `json:"metrics"`
	order      []string
}

// result is the object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func newRecord(w *workload, o options) *record {
	return &record{
		Workload: w.name, Trace: o.trace, Seed: o.seed,
		Seconds: o.dur.Seconds(), Requests: o.requests,
		Metrics: map[string]metric{},
	}
}

func (r *record) set(name string, v float64, unit string) {
	if _, ok := r.Metrics[name]; !ok {
		r.order = append(r.order, name)
	}
	r.Metrics[name] = metric{v, unit}
}

// count folds a phase's attempted and failed requests into the record.
func (r *record) count(ph *phase) {
	r.Attempted += ph.attempted
	r.Failed += ph.failed
	r.Spurious += ph.spurious
	if r.FirstFail == "" && ph.firstErr != nil {
		r.FirstFail = ph.firstErr.Error()
	}
}

// timeKind says whether a metric is host time, simulated time or a count.
func timeKind(name, unit string) string {
	switch {
	case strings.Contains(name, "sim_") || name == "disk.sim_busy_share":
		return "simulated"
	case unit == "count" || unit == "ratio":
		return "count"
	}
	return "host"
}

func (r *record) print() {
	fmt.Printf("workload %s  trace=%d seed=%d  stream %s\n", r.Workload, r.Trace, r.Seed, r.StreamHash[:16])
	fmt.Printf("  requests attempted %d, failed %d, spurious ErrFault retried by the oracle %d",
		r.Attempted, r.Failed, r.Spurious)
	if r.Samples > 0 {
		fmt.Printf("; %d timed latency samples, highest resolvable percentile p%g",
			r.Samples, 100*pickTail(r.Samples))
	}
	fmt.Println()
	if r.FirstFail != "" {
		fmt.Printf("  first failure: %s\n", r.FirstFail)
	}
	for _, name := range r.order {
		m := r.Metrics[name]
		fmt.Printf("  %-36s %16.6g %-6s (%s)\n", name, m.Value, m.Unit, timeKind(name, m.Unit))
	}
}

// facts are the host facts a set records.
type facts struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Clients    int     `json:"clients"`
}

// set is the file the all-workloads mode writes and -compare reads.
type set struct {
	Facts facts     `json:"facts"`
	Runs  []*record `json:"runs"`
}

func main() {
	// Two client goroutines on two Ps, whatever the host has: the load
	// shape is part of the benchmark's definition.
	runtime.GOMAXPROCS(numClients)

	var (
		wname    = flag.String("workload", "", "run one workload and print the result object (default: run all)")
		seed     = flag.Uint64("seed", 1, "request-stream seed")
		seconds  = flag.Float64("seconds", 10, "timed-phase length in seconds")
		requests = flag.Int("requests", 0, "fixed request count per client instead of -seconds (repeatable counts)")
		trace    = flag.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
		outDir   = flag.String("outdir", "bench/out", "directory for trace files")
		runs     = flag.Int("runs", 3, "all-workloads mode: untraced runs per workload (seeds seed..seed+runs-1)")
		out      = flag.String("out", "bench/out/set.json", "all-workloads mode: set file to write")
		compare  = flag.Bool("compare", false, "compare two set files: uvmperf -compare A.json B.json")
		bounds   = flag.String("bounds", "BENCHMARK.json", "file holding the end-to-end bounds, for -compare")
	)
	flag.Parse()
	o := options{seed: *seed, dur: time.Duration(*seconds * float64(time.Second)),
		requests: *requests, trace: *trace, outDir: *outDir, unitBudget: 60 * time.Millisecond}

	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal(errors.New("usage: uvmperf -compare A.json B.json"))
		}
		regressed, err := compareFiles(os.Stdout, *bounds, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if regressed {
			os.Exit(1)
		}
	case *wname != "":
		w := findWorkload(*wname)
		if w == nil {
			fatal(fmt.Errorf("unknown workload %q", *wname))
		}
		if *seconds <= 0 && *requests <= 0 {
			fatal(errors.New("need -seconds > 0 or -requests > 0"))
		}
		rec := runOne(w, o)
		rec.print()
		line, err := json.Marshal(rec)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("#record %s\n", line)
		line, err = json.Marshal(result{rec.Correct, rec.Attempted, rec.Failed, rec.Metrics})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s\n", line)
	default:
		if err := runAll(o, *runs, *out); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "uvmperf: %v\n", err)
	os.Exit(2)
}

// runOne runs one workload once in this process.
func runOne(w *workload, o options) *record {
	var rec *record
	var err error
	if o.trace == 0 {
		rec, err = endToEnd(w, o)
	} else {
		rec, err = perLayer(w, o)
	}
	// A failed request is counted, not fatal; a run is incorrect only
	// when the harness itself found the machine in a wrong state.
	rec.Correct = err == nil
	if err != nil {
		rec.Error = err.Error()
		fmt.Fprintf(os.Stderr, "uvmperf: %s: %v\n", w.name, err)
	}
	return rec
}

// runAll runs every workload in child processes — runs untraced runs
// and one traced run each — prints every record and writes the set.
func runAll(o options, runs int, out string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	s := set{Facts: facts{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: commit(), Seed: o.seed, Seconds: o.dur.Seconds(), Clients: numClients,
	}}
	fmt.Printf("uvmperf: nproc=%d GOMAXPROCS=%d %s commit=%s seed=%d\n",
		s.Facts.NProc, s.Facts.GOMAXPROCS, s.Facts.GoVersion, s.Facts.Commit, o.seed)
	bad := 0
	for _, w := range workloads {
		for i := 0; i <= runs; i++ {
			trace, seed := 0, o.seed+uint64(i)
			if i == runs {
				trace, seed = 1, o.seed
			}
			args := []string{"-workload", w.name, "-trace", fmt.Sprint(trace), "-seed", fmt.Sprint(seed),
				"-seconds", fmt.Sprint(o.dur.Seconds()), "-requests", fmt.Sprint(o.requests), "-outdir", o.outDir}
			cmd := exec.Command(self, args...)
			cmd.Stderr = os.Stderr
			stdout, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s %s: %w", self, strings.Join(args, " "), err)
			}
			rec, err := parseChild(os.Stdout, stdout)
			if err != nil {
				return fmt.Errorf("%s trace=%d: %w", w.name, trace, err)
			}
			if !rec.Correct || rec.Failed > 0 {
				bad++
			}
			s.Runs = append(s.Runs, rec)
		}
	}
	data, err := json.MarshalIndent(s, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(out, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("uvmperf: wrote %s (%d runs)\n", out, len(s.Runs))
	if bad > 0 {
		return fmt.Errorf("%d runs were incorrect or had failed requests", bad)
	}
	return nil
}

// parseChild copies a single-workload run's human-readable lines to w
// and decodes the #record line it printed.
func parseChild(w io.Writer, stdout []byte) (*record, error) {
	var rec *record
	for _, line := range strings.Split(string(stdout), "\n") {
		switch rest, ok := strings.CutPrefix(line, "#record "); {
		case ok:
			rec = &record{}
			if err := json.Unmarshal([]byte(rest), rec); err != nil {
				return nil, err
			}
		case rec == nil:
			fmt.Fprintln(w, line)
		}
	}
	if rec == nil {
		return nil, errors.New("child printed no #record line")
	}
	return rec, nil
}

// commit names the checked-out commit, when there is a git checkout.
func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
