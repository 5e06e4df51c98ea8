package pmap

import (
	"testing"
	"unsafe"
)

// apart reports whether no cache line can hold bytes of both [a, a+na)
// and [b, b+nb) wherever their object starts: a whole line's worth of
// bytes lies between them (an MMU, like any larger pointerful Go object,
// need not start on a line boundary).
func apart(a, na, b, nb uintptr) bool {
	if b < a {
		a, na, b, nb = b, nb, a, na
	}
	return b >= a+na+63
}

// TestHotWordsOnOwnCacheLines is the layout fence for the reverse map:
// every pv bucket's lock and count keep a line to themselves, away from
// the next bucket's, and the live-bucket count every lookup reads stays
// off the first bucket's line.
func TestHotWordsOnOwnCacheLines(t *testing.T) {
	var b pvBucket
	size := unsafe.Sizeof(b)
	if size%64 != 0 {
		t.Errorf("pvBucket is %d bytes, want a multiple of 64", size)
	}
	hot := unsafe.Offsetof(b.n) + unsafe.Sizeof(b.n)
	if !apart(0, hot, size, hot) {
		t.Errorf("pvBucket is %d bytes with %d hot: adjacent buckets can share a line", size, hot)
	}
	var m MMU
	if !apart(unsafe.Offsetof(m.shards), unsafe.Sizeof(m.shards), unsafe.Offsetof(m.buckets), hot) {
		t.Errorf("MMU.shards (offset %d) can share a cache line with buckets[0] (offset %d)",
			unsafe.Offsetof(m.shards), unsafe.Offsetof(m.buckets))
	}
}
