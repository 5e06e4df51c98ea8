package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"

	"uvm/internal/histogram"
)

// Span kinds: one per call the generators make into the program under
// test. spanRequest is the parent of every other span of a request.
const (
	spanMmap = iota
	spanMunmap
	spanAccessFault
	spanAccessHit
	spanFork
	spanExit
	spanMsync
	spanOpen
	spanUnref
	numCallSpans
	spanRequest = numCallSpans
)

// spanNames are the metric prefixes of the call spans.
var spanNames = [numCallSpans]string{
	"uvm.mmap", "uvm.munmap", "uvm.access_fault", "uvm.access_hit",
	"uvm.fork", "uvm.exit", "uvm.msync", "vfs.open", "vfs.unref",
}

// rawSampleEvery selects the requests whose spans are kept verbatim for
// the trace file; every request feeds the aggregates.
const rawSampleEvery = 64

// interval is one span's extent, in nanoseconds since the trace began.
type interval struct{ start, end int64 }

// selfTime is a span's duration minus the part of it its children
// cover. Children may overlap each other and may stick out of the
// parent; only coverage inside the parent counts, and only once.
// children must be ordered by start (spans are recorded in begin order).
func selfTime(parent interval, children []interval) int64 {
	covered := int64(0)
	edge := parent.start // everything before edge is already accounted
	for _, c := range children {
		s, e := c.start, c.end
		if s < edge {
			s = edge
		}
		if e > parent.end {
			e = parent.end
		}
		if e > s {
			covered += e - s
			edge = e
		}
	}
	return parent.end - parent.start - covered
}

// rawSpan is one span as written to the trace file. Parent is the index
// of the parent span within the same file (-1 for a request span).
type rawSpan struct {
	Name    string `json:"name"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	Request int64  `json:"request"`
}

// spanAgg aggregates one span kind over a traced run.
type spanAgg struct {
	hist  *histogram.Hist
	sumNs int64
}

// tracer records the spans of one client. It is owned by that client's
// goroutine; nothing here is shared.
type tracer struct {
	t0       time.Time
	agg      [numCallSpans]spanAgg
	children []interval // the current request's call spans, in begin order
	kinds    []uint8    // kinds[i] is children[i]'s span kind
	reqStart int64
	requests int64
	reqNs    int64 // summed request span durations
	selfNs   int64 // summed request self times
	raw      []rawSpan
}

func newTracer() *tracer {
	t := &tracer{t0: time.Now()}
	for i := range t.agg {
		t.agg[i].hist = histogram.New()
	}
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// beginRequest opens the request span; endRequest closes it, folds the
// request's self time into the aggregates and, for sampled requests,
// keeps the raw spans.
func (t *tracer) beginRequest() {
	t.children = t.children[:0]
	t.kinds = t.kinds[:0]
	t.reqStart = t.now()
}

func (t *tracer) endRequest() {
	req := interval{t.reqStart, t.now()}
	t.reqNs += req.end - req.start
	t.selfNs += selfTime(req, t.children)
	if t.requests%rawSampleEvery == 0 {
		parent := len(t.raw)
		t.raw = append(t.raw, rawSpan{"request", req.start, req.end, -1, t.requests})
		for i, c := range t.children {
			t.raw = append(t.raw, rawSpan{spanNames[t.kinds[i]], c.start, c.end, parent, t.requests})
		}
	}
	t.requests++
}

// end closes a call span begun at start (a value of now()).
func (t *tracer) end(kind int, start int64) {
	end := t.now()
	t.children = append(t.children, interval{start, end})
	t.kinds = append(t.kinds, uint8(kind))
	a := &t.agg[kind]
	a.hist.Record(time.Duration(end - start))
	a.sumNs += end - start
}

// traceFile is the layout of bench/out/trace-<workload>.json.
type traceFile struct {
	Workload    string    `json:"workload"`
	Seed        uint64    `json:"seed"`
	Requests    int64     `json:"requests"`
	SampleEvery int       `json:"raw_sample_every"`
	Note        string    `json:"note"`
	Spans       []rawSpan `json:"spans"`
}

// writeTrace writes the sampled raw spans to dir/trace-<workload>.json.
func (t *tracer) writeTrace(dir, workload string, seed uint64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(traceFile{
		Workload:    workload,
		Seed:        seed,
		Requests:    t.requests,
		SampleEvery: rawSampleEvery,
		Note:        "host wall-clock ns since the traced run began; parent indexes into spans",
		Spans:       t.raw,
	})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), data, 0o644)
}
