package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"uvm/internal/bsdvm"
	"uvm/internal/uvm"
	"uvm/internal/vmapi"
)

// variant is a way of booting the machine a workload runs on: the
// default (uvm, default config) or one of the reference rows.
type variant struct {
	name string
	tune func(*vmapi.MachineConfig) // adjusts the workload's machine; may be nil
	boot vmapi.Booter
}

var defaultVariant = variant{name: "uvm", boot: uvm.Boot}

// refVariants are the reference rows: the paper's contrast baseline and
// each scale-out / async mechanism flipped against the default.
var refVariants = []variant{
	{name: "bsdvm", boot: bsdvm.Boot},
	{name: "pv1", boot: func(m *vmapi.Machine) vmapi.System {
		m.MMU.SetPVShards(1)
		return uvm.Boot(m)
	}},
	{name: "magazines", tune: func(c *vmapi.MachineConfig) { c.AllocCaches = 2 }, boot: uvm.Boot},
	{name: "async_io", boot: func(m *vmapi.Machine) vmapi.System {
		cfg := uvm.DefaultConfig()
		cfg.AsyncPageout, cfg.PageoutWindow, cfg.PageinCluster = true, 4, 8
		cfg.AsyncWriteback, cfg.WritebackCluster = true, 16
		return uvm.BootConfig(m, cfg)
	}},
}

// failedLatency is the latency recorded for a failed request: beyond
// any limit, so failures drag the percentiles instead of vanishing.
const failedLatency = math.MaxInt32

// phase is what one closed-loop phase (warm-up or timed) produced.
type phase struct {
	attempted, failed int
	spurious          int // oracle copies retried after a spurious ErrFault
	firstErr          error
	wall              time.Duration // first request issued to last request done
	sim               time.Duration // Machine.Clock delta
	counters          map[string]int64
	lat               []int32  // per-request wall ns, all clients, unsorted
	endUs             []uint32 // when each request of lat completed, in us since the phase began
}

// run is one machine being driven: the env, its clients and their
// position in their streams.
type run struct {
	e       *env
	clients []*client
	streams [][]request
	pos     []int // next stream index per client
	setup   time.Duration
}

// startRun boots a fresh machine for w under v, creates the corpus and
// the clients' processes and runs the untimed warm-up. The time all of
// that took is the run's setup time. traced attaches a tracer to the
// (single) client.
func startRun(w *workload, v variant, streams [][]request, names []string, warmup int, traced bool) (*run, *phase, error) {
	t0 := time.Now()
	cfg := w.cfg
	if v.tune != nil {
		v.tune(&cfg)
	}
	mach := vmapi.NewMachine(cfg)
	e := &env{w: w, sys: v.boot(mach), mach: mach, fs: mach.FS, names: names}
	r := &run{e: e, streams: streams, pos: make([]int, len(streams))}
	if err := e.createCorpus(); err != nil {
		return r, nil, err
	}
	for id := range streams {
		c := &client{e: e, id: id}
		r.clients = append(r.clients, c)
		if err := w.setup(e, c); err != nil {
			return r, nil, fmt.Errorf("setup client %d: %w", id, err)
		}
	}
	warm := &phase{}
	if warmup > 0 {
		warm = r.drive(warmup, 0)
	}
	if traced {
		r.clients[0].tr = newTracer()
	}
	r.setup = time.Since(t0)
	return r, warm, nil
}

// drive runs one closed-loop phase on every client at once: each client
// issues its next request only when the previous one has completed.
// With requests > 0 each client issues exactly that many; otherwise
// each runs until dur has passed. Only whole requests are timed — two
// clock reads per request, none per access.
func (r *run) drive(requests int, dur time.Duration) *phase {
	ph := &phase{}
	before := r.e.mach.Stats.Snapshot()
	sim0 := r.e.mach.Clock.Now()
	type part struct {
		attempted, failed int
		firstErr          error
		lat               []int32
		endUs             []uint32
		end               time.Time
	}
	parts := make([]part, len(r.clients))
	capHint := requests
	if capHint == 0 {
		capHint = 1 << 20
	}
	for i := range parts {
		parts[i].lat = make([]int32, 0, capHint)
		parts[i].endUs = make([]uint32, 0, capHint)
	}
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(dur)
	for i, c := range r.clients {
		wg.Add(1)
		go func(c *client, pt *part, stream []request, pos *int) {
			defer wg.Done()
			for requests == 0 || pt.attempted < requests {
				req := &stream[*pos%len(stream)]
				*pos++
				t0 := time.Now()
				if c.tr != nil {
					c.tr.beginRequest()
				}
				err := r.e.w.do(c, req)
				if c.tr != nil {
					c.tr.endRequest()
				}
				t1 := time.Now()
				pt.attempted++
				ns := t1.Sub(t0)
				if err != nil {
					pt.failed++
					if pt.firstErr == nil {
						pt.firstErr = err
					}
					ns = failedLatency
				} else if ns > failedLatency-1 {
					ns = failedLatency - 1
				}
				pt.lat = append(pt.lat, int32(ns))
				pt.endUs = append(pt.endUs, uint32(t1.Sub(start)/time.Microsecond))
				pt.end = t1
				if requests == 0 && !t1.Before(deadline) {
					break
				}
			}
		}(c, &parts[i], r.streams[i], &r.pos[i])
	}
	wg.Wait()
	for _, c := range r.clients {
		ph.spurious += c.spurious
		c.spurious = 0
	}
	end := start
	for i := range parts {
		pt := &parts[i]
		ph.attempted += pt.attempted
		ph.failed += pt.failed
		if ph.firstErr == nil {
			ph.firstErr = pt.firstErr
		}
		ph.lat = append(ph.lat, pt.lat...)
		ph.endUs = append(ph.endUs, pt.endUs...)
		if pt.end.After(end) {
			end = pt.end
		}
	}
	ph.wall = end.Sub(start)
	ph.sim = r.e.mach.Clock.Now() - sim0
	ph.counters = r.e.mach.Stats.Snapshot()
	for k, v := range before {
		ph.counters[k] -= v
	}
	return ph
}

// finish verifies what the run left behind and tears the machine down:
// file_write's tags must be on disk (read through the vnode, not a
// mapping), and once every process has exited and the system has shut
// down there must be no Busy page and no live swap slot.
func (r *run) finish() error {
	var firstErr error
	note := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	buf := make([]byte, pg)
	for _, c := range r.clients {
		files := make([]int, 0, len(c.fileExp))
		for f := range c.fileExp {
			files = append(files, int(f))
		}
		sort.Ints(files)
		for _, f := range files {
			vn, err := r.e.fs.Open(r.e.names[f])
			if err != nil {
				note(err)
				continue
			}
			for i, want := range c.fileExp[uint16(f)] {
				if err := vn.ReadPage(i, buf); err != nil {
					note(err)
				} else if got := binary.LittleEndian.Uint64(buf); got != want {
					note(fmt.Errorf("%w: %s page %d on disk: got %#x want %#x", errMismatch, r.e.names[f], i, got, want))
				}
			}
			vn.Unref()
		}
	}
	for _, c := range r.clients {
		if c.proc != nil && !c.proc.Exited() {
			c.proc.Exit()
		}
		for _, tn := range c.tenants {
			if !tn.proc.Exited() {
				tn.proc.Exit()
			}
		}
	}
	r.e.sys.Shutdown()
	if n := len(r.e.mach.Mem.BusyPages()); n != 0 {
		note(fmt.Errorf("uvmperf: %d pages still Busy after Shutdown", n))
	}
	if n := r.e.mach.Swap.SlotsInUse(); n != 0 {
		note(fmt.Errorf("uvmperf: %d swap slots live after every process exited", n))
	}
	return firstErr
}

// corpusNames pre-generates the workload's file names.
func corpusNames(w *workload) []string {
	names := make([]string, w.files)
	for i := range names {
		names[i] = fmt.Sprintf("/corpus/f%05d", i)
	}
	return names
}

// genStreams pre-generates one request stream per client from seed.
func genStreams(w *workload, seed uint64, clients int) [][]request {
	streams := make([][]request, clients)
	for c := range streams {
		streams[c] = w.gen(clientRNG(seed, c), c, w)
	}
	return streams
}

// quantile returns the nearest-rank q-quantile of sorted.
func quantile(sorted []int32, q float64) int32 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// windows is how many equal slices of its wall time a timed phase is
// cut into. The host-time metrics are medians over the slices, so a
// slice disturbed by the host (a neighbour, a scheduling hiccup) moves
// the result little.
const windows = 10

// windowed cuts a timed phase into windows equal time slices by request
// completion time and returns the median over the slices of: completed
// requests per second, median latency (ns) and p99 latency (ns). Failed
// requests sit in lat as failedLatency and do not count as completed.
func windowed(ph *phase) (rate, p50, p99 float64) {
	slice := float64(ph.wall/time.Microsecond) / windows
	byWin := make([][]int32, windows)
	for i, ns := range ph.lat {
		w := int(float64(ph.endUs[i]) / slice)
		if w >= windows {
			w = windows - 1
		}
		byWin[w] = append(byWin[w], ns)
	}
	var rates, p50s, p99s []float64
	for _, lat := range byWin {
		slices.Sort(lat)
		done := sort.Search(len(lat), func(i int) bool { return lat[i] == failedLatency })
		rates = append(rates, float64(done)/(slice/1e6))
		p50s = append(p50s, float64(quantile(lat, 0.50)))
		p99s = append(p99s, float64(quantile(lat, 0.99)))
	}
	return median(rates), median(p50s), median(p99s)
}

func median(v []float64) float64 {
	sort.Float64s(v)
	n := len(v)
	if n%2 == 1 {
		return v[n/2]
	}
	return (v[n/2-1] + v[n/2]) / 2
}

// tails are the percentiles a latency report may quote, each with the
// share of samples beyond it written as one in oneIn (kept as an
// integer so the ten-samples rule is exact).
var tails = []struct {
	q     float64
	oneIn int
}{{0.5, 2}, {0.9, 10}, {0.99, 100}, {0.999, 1000}, {0.9999, 10000}, {0.99999, 100000}}

// pickTail returns the highest percentile of tails that still has at
// least ten of n samples beyond it (0 if none has).
func pickTail(n int) float64 {
	best := 0.0
	for _, t := range tails {
		if n/t.oneIn >= 10 {
			best = t.q
		}
	}
	return best
}

// peakRSSMB reads this process's peak resident set (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		var kb float64
		if n, _ := fmt.Sscanf(line, "VmHWM: %f kB", &kb); n == 1 {
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("uvmperf: no VmHWM in /proc/self/status")
}

// setupRepeats is how many times an untraced run sets its machine up;
// setup_s is the median, and the last machine is the one measured.
const setupRepeats = 3

// endToEnd is the untraced run: setupRepeats set-ups, a GC, then the
// timed phase with two clients. It returns the end-to-end metrics.
func endToEnd(w *workload, o options) (*record, error) {
	rec := newRecord(w, o)
	names := corpusNames(w)
	streams := genStreams(w, o.seed, numClients)
	rec.StreamHash = streamHash(streams, names)

	var setups []float64
	var r *run
	for i := 0; i < setupRepeats; i++ {
		if r != nil {
			if err := r.finish(); err != nil {
				return rec, err
			}
			// Drop the old machine before building the next, so the
			// peak RSS is one machine's, not two.
			r = nil
			runtime.GC()
		}
		var warm *phase
		var err error
		r, warm, err = startRun(w, defaultVariant, streams, names, o.warmup(w), false)
		if err != nil {
			return rec, err
		}
		setups = append(setups, r.setup.Seconds())
		rec.count(warm)
	}
	runtime.GC()
	ph := r.drive(o.requests, o.dur)
	rec.count(ph)
	err := r.finish()

	rec.Samples = len(ph.lat)
	rss, rssErr := peakRSSMB()
	if err == nil {
		err = rssErr
	}
	perSec, p50, p99 := windowed(ph)
	rec.set("setup_s", median(setups), "s")
	rec.set("req_per_s", perSec, "1/s")
	rec.set("req_us_p50", p50/1e3, "us")
	rec.set("req_us_p99", p99/1e3, "us")
	rec.set("sim_ms_per_req", ph.sim.Seconds()*1e3/float64(ph.attempted), "ms")
	rec.set("host_rss_mb", rss, "MB")
	if beyond := float64(len(ph.lat)) / windows * 0.01; beyond < 10 {
		return rec, fmt.Errorf("uvmperf: only %.0f samples beyond p99 in each of %d windows; run longer", beyond, windows)
	}
	return rec, err
}
