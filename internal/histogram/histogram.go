// Package histogram provides a lock-free, fixed-bucket latency
// histogram for hot paths that record one duration per operation from
// many goroutines — bench/uvmperf times every request through one of
// these.
//
// The layout is log-linear (the HdrHistogram idea, shrunk to what the
// simulation needs): values below subCount nanoseconds get their own
// bucket; above that, each power-of-two range is split into subCount
// linear sub-buckets, so the worst-case quantile error is 1/subCount
// (~6%) at every magnitude. The bucket count is fixed at construction —
// no allocation, no resizing, no locks on the record path — so Record
// is a single atomic add on an array cell plus one on the total, safe
// from any number of goroutines.
//
// Recording is lock-free but not snapshot-consistent: a Quantile taken
// while writers are still recording sees some prefix of their updates,
// so read a histogram after its writers are done.
package histogram

import (
	"fmt"
	"math/bits"
	"strings"
	"sync/atomic"
	"time"
)

const (
	// subBits sets the linear resolution within each power-of-two range:
	// 2^subBits sub-buckets, so quantiles are exact to ~1/2^subBits.
	subBits  = 4
	subCount = 1 << subBits

	// maxExp is the largest power-of-two range with its own sub-buckets.
	// With subBits=4 the top bucket's upper bound is (2*subCount<<maxExp)-1
	// nanoseconds ≈ 39 hours; anything larger clamps into the last bucket.
	maxExp = 42

	// NumBuckets is the fixed bucket count of every Hist.
	NumBuckets = (maxExp + 2) * subCount
)

// Hist is one histogram: a fixed array of atomic bucket counters plus a
// total count and an exact running maximum. The zero value is NOT ready
// to use — call New (the struct is large and must not be copied once
// recording has started).
type Hist struct {
	buckets [NumBuckets]atomic.Int64
	count   atomic.Int64
	max     atomic.Int64
}

// New returns an empty histogram.
func New() *Hist { return &Hist{} }

// bucketIndex maps a non-negative nanosecond value to its bucket.
func bucketIndex(v int64) int {
	if v < subCount {
		return int(v)
	}
	exp := bits.Len64(uint64(v)) - 1 - subBits // ≥ 0 here
	if exp > maxExp {
		return NumBuckets - 1
	}
	sub := int(v >> uint(exp)) // in [subCount, 2*subCount)
	return (exp+1)*subCount + (sub - subCount)
}

// bucketUpper returns the largest nanosecond value bucket idx holds —
// the value quantiles report for ranks landing in the bucket.
func bucketUpper(idx int) int64 {
	if idx < subCount {
		return int64(idx)
	}
	exp := idx/subCount - 1
	sub := int64(idx%subCount + subCount)
	return ((sub + 1) << uint(exp)) - 1
}

// Record adds one observation. Negative durations clamp to zero (the
// wall clock can step backwards under NTP; a latency cannot).
func (h *Hist) Record(d time.Duration) {
	v := int64(d)
	if v < 0 {
		v = 0
	}
	h.buckets[bucketIndex(v)].Add(1)
	h.count.Add(1)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
}

// Count returns the number of recorded observations.
func (h *Hist) Count() int64 { return h.count.Load() }

// Max returns the largest recorded value exactly (not bucket-rounded);
// zero if nothing was recorded.
func (h *Hist) Max() time.Duration { return time.Duration(h.max.Load()) }

// Quantile returns the value at quantile q in [0, 1]: the upper bound of
// the bucket holding the ⌈q·count⌉-th smallest observation (so
// Quantile(0) is the first observation's bucket and Quantile(1) the
// last's). Zero if nothing was recorded.
func (h *Hist) Quantile(q float64) time.Duration {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(q*float64(n) + 0.5)
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	cum := int64(0)
	for i := range h.buckets {
		cum += h.buckets[i].Load()
		if cum >= rank {
			return time.Duration(bucketUpper(i))
		}
	}
	return h.Max() // writers raced the walk: report the max we saw
}

// P50 is Quantile(0.50).
func (h *Hist) P50() time.Duration { return h.Quantile(0.50) }

// P99 is Quantile(0.99).
func (h *Hist) P99() time.Duration { return h.Quantile(0.99) }

// P999 is Quantile(0.999).
func (h *Hist) P999() time.Duration { return h.Quantile(0.999) }

// String renders the summary line reports print.
func (h *Hist) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "n=%d p50=%v p99=%v p999=%v max=%v",
		h.Count(), h.P50(), h.P99(), h.P999(), h.Max())
	return b.String()
}
