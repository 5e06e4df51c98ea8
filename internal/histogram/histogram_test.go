package histogram

import (
	"sync"
	"testing"
	"time"
)

// TestBucketBoundaries pins the log-linear bucket map: values below
// subCount get exact buckets, each power-of-two range above splits into
// subCount sub-buckets, and every value maps into a bucket whose bounds
// contain it.
func TestBucketBoundaries(t *testing.T) {
	// The linear range is exact: value v lives in bucket v with upper
	// bound v.
	for v := int64(0); v < subCount; v++ {
		if idx := bucketIndex(v); idx != int(v) {
			t.Errorf("bucketIndex(%d) = %d, want %d", v, idx, v)
		}
		if up := bucketUpper(int(v)); up != v {
			t.Errorf("bucketUpper(%d) = %d, want %d", v, up, v)
		}
	}
	// The first sub-bucketed ranges stay exact while the value still fits
	// in subBits+1 bits ([16,31] has 16 sub-buckets of width 1).
	for v := int64(subCount); v < 2*subCount; v++ {
		if up := bucketUpper(bucketIndex(v)); up != v {
			t.Errorf("value %d rounds to %d, want exact", v, up)
		}
	}
	// Beyond that, a value's bucket upper bound is ≥ the value and within
	// a 1/subCount relative error.
	for _, v := range []int64{32, 33, 100, 1000, 12345, 1 << 20, 1<<30 + 7, 1 << 40} {
		idx := bucketIndex(v)
		up := bucketUpper(idx)
		if up < v {
			t.Errorf("bucketUpper(bucketIndex(%d)) = %d < value", v, up)
		}
		if float64(up-v) > float64(v)/subCount {
			t.Errorf("value %d rounds to %d: error beyond 1/%d", v, up, subCount)
		}
		// Buckets are ordered: the previous bucket's bound is below v.
		if idx > 0 && bucketUpper(idx-1) >= v {
			t.Errorf("value %d not in bucket %d: previous bound %d", v, idx, bucketUpper(idx-1))
		}
	}
	// Values beyond the top range clamp into the last bucket instead of
	// indexing out of bounds.
	if idx := bucketIndex(1 << 62); idx != NumBuckets-1 {
		t.Errorf("huge value bucket = %d, want %d", idx, NumBuckets-1)
	}
}

// TestExactQuantiles checks quantiles on a known input set that lies
// entirely in the exact (linear) range: 16 observations of 0..15 ns.
func TestExactQuantiles(t *testing.T) {
	h := New()
	for v := 0; v < 16; v++ {
		h.Record(time.Duration(v))
	}
	if h.Count() != 16 {
		t.Fatalf("count = %d, want 16", h.Count())
	}
	cases := []struct {
		q    float64
		want time.Duration
	}{
		{0, 0},      // first observation
		{0.5, 7},    // 8th smallest of 16
		{0.25, 3},   // 4th smallest
		{0.99, 15},  // rank 16
		{0.999, 15}, // rank 16
		{1, 15},     // last observation
	}
	for _, c := range cases {
		if got := h.Quantile(c.q); got != c.want {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if h.Max() != 15 {
		t.Errorf("Max = %v, want 15ns", h.Max())
	}
}

// TestQuantilesSkewed checks the tail on a skewed distribution: 998
// fast observations and two slow ones; p99 stays fast, p999 (rank 999
// of 1000) and max see the outliers.
func TestQuantilesSkewed(t *testing.T) {
	h := New()
	for i := 0; i < 998; i++ {
		h.Record(10)
	}
	h.Record(time.Millisecond)
	h.Record(time.Millisecond)
	if got := h.P50(); got != 10 {
		t.Errorf("p50 = %v, want 10ns", got)
	}
	if got := h.P99(); got != 10 {
		t.Errorf("p99 = %v, want 10ns", got)
	}
	if got := h.P999(); got < time.Millisecond {
		t.Errorf("p999 = %v, want ≥ 1ms (the outlier's bucket)", got)
	}
	if h.Max() != time.Millisecond {
		t.Errorf("max = %v, want exactly 1ms", h.Max())
	}
}

// TestEmptyHist pins the zero-observation behaviour.
func TestEmptyHist(t *testing.T) {
	h := New()
	if h.Count() != 0 || h.P50() != 0 || h.P999() != 0 || h.Max() != 0 {
		t.Errorf("empty histogram not all-zero: %s", h)
	}
}

// TestHistConcurrentRecord is the -race stress: 8 goroutines hammer one
// histogram (the shared-sink pattern). Totals must come out exact, and
// after the join every quantile must match a histogram fed the same
// observations from one goroutine.
func TestHistConcurrentRecord(t *testing.T) {
	const (
		workers = 8
		perW    = 20_000
	)
	stream := func(w int, record func(time.Duration)) {
		v := time.Duration(w + 1)
		for i := 0; i < perW; i++ {
			record(v)
			v = (v*13 + 7) % 1_000_000
		}
	}
	shared := New()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			stream(w, shared.Record)
		}(w)
	}
	wg.Wait()
	if shared.Count() != workers*perW {
		t.Errorf("shared count = %d, want %d", shared.Count(), workers*perW)
	}
	serial := New()
	for w := 0; w < workers; w++ {
		stream(w, serial.Record)
	}
	// Identical observations: the shared sink and the serial one must
	// agree bucket-for-bucket, so every quantile and the max match.
	for _, q := range []float64{0.5, 0.99, 0.999} {
		if s, r := shared.Quantile(q), serial.Quantile(q); s != r {
			t.Errorf("Quantile(%v): shared %v != serial %v", q, s, r)
		}
	}
	if shared.Max() != serial.Max() {
		t.Errorf("shared max %v != serial max %v", shared.Max(), serial.Max())
	}
}
