package phys

import (
	"errors"
	"reflect"
	"testing"
	"unsafe"
)

// drainShard empties shard k's free list behind the allocator's back,
// keeping the free counter exact, so a row can start with shards empty
// without going through the allocation path under test.
func drainShard(m *Mem, k int) {
	sh := &m.shards[k]
	for p := sh.free.popHead(); p != nil; p = sh.free.popHead() {
		p.queue = QueueNone
		m.freeCnt.Add(-1)
	}
}

// TestAllocNear: the frame comes from the home shard while it has free
// frames, then from the shards after it in order; a negative home is
// Alloc's rotation, a home past the last shard wraps, and with the
// per-CPU caches on the magazine serves and the home plays no part.
func TestAllocNear(t *testing.T) {
	const errNoMem = -1 // want entry: the call fails with ErrNoMemory
	every := make([]int, NumShards)
	for i := range every {
		every[i] = i
	}
	rows := []struct {
		name   string
		caches int   // magazines (batch 4); 0 = the plain pool
		empty  []int // shards drained before the calls
		homes  []int // one AllocNear call each
		want   []int // shard of each call's frame, or errNoMem
	}{
		{name: "home-has-frames", homes: []int{5, 5, 12}, want: []int{5, 5, 12}},
		{name: "home-empty-next", empty: []int{5}, homes: []int{5}, want: []int{6}},
		{name: "home-and-next-empty", empty: []int{5, 6}, homes: []int{5}, want: []int{7}},
		{name: "last-shard-empty-wraps-to-first", empty: []int{NumShards - 1}, homes: []int{NumShards - 1}, want: []int{0}},
		{name: "all-empty", empty: every, homes: []int{3}, want: []int{errNoMem}},
		{name: "negative-home-rotates", homes: []int{-1, -1, -1}, want: []int{0, 1, 2}},
		{name: "home-past-last-wraps", homes: []int{NumShards + 5, NumShards}, want: []int{5, 0}},
		{name: "caches-ignore-home", caches: 1, homes: []int{5, 9}, want: []int{0, 0}},
	}
	for _, tc := range rows {
		t.Run(tc.name, func(t *testing.T) {
			m := newTestMem(4 * NumShards)
			m.SetAllocCaches(tc.caches, 4)
			for _, k := range tc.empty {
				drainShard(m, k)
			}
			for i, home := range tc.homes {
				free := m.FreePages()
				p, err := m.AllocNear(home, nil, 0, false)
				if tc.want[i] == errNoMem {
					if !errors.Is(err, ErrNoMemory) {
						t.Fatalf("call %d (home %d): got %v, want ErrNoMemory", i, home, err)
					}
					continue
				}
				if err != nil {
					t.Fatalf("call %d (home %d): %v", i, home, err)
				}
				if got := p.Shard(); got != tc.want[i] {
					t.Errorf("call %d (home %d): frame from shard %d, want %d", i, home, got, tc.want[i])
				}
				if m.FreePages() != free-1 {
					t.Errorf("call %d: free count %d -> %d", i, free, m.FreePages())
				}
			}
		})
	}
}

// apart reports whether no cache line can hold bytes of both [a, a+na)
// and [b, b+nb) wherever their object starts: a whole line's worth of
// bytes lies between them. Offsets are checked this way, not as offset/64,
// because Go puts an 8-byte header in front of larger pointerful objects,
// so a struct such as Mem does not start on a line boundary.
func apart(a, na, b, nb uintptr) bool {
	if b < a {
		a, na, b, nb = b, nb, a, na
	}
	return b >= a+na+63
}

// TestHotWordsOnOwnCacheLines is the layout fence for the words that
// every allocation, free and queue move writes from whichever core runs
// it: each shard's lock and lists, and Mem's LRU stamp, rotating cursor
// and free count. Each must keep a line to itself, away from its
// neighbours and from the read-mostly fields every allocation reads.
func TestHotWordsOnOwnCacheLines(t *testing.T) {
	var sh memShard
	size := unsafe.Sizeof(sh)
	if size%64 != 0 {
		t.Errorf("memShard is %d bytes, want a multiple of 64", size)
	}
	hot := unsafe.Offsetof(sh.inactive) + unsafe.Sizeof(sh.inactive)
	if !apart(0, hot, size, hot) {
		t.Errorf("memShard is %d bytes with %d hot: adjacent shards can share a line", size, hot)
	}

	typ := reflect.TypeOf(Mem{})
	for _, name := range []string{"seqCtr", "allocCursor", "freeCnt"} {
		w, _ := typ.FieldByName(name)
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			if f.Name == "_" || f.Name == name {
				continue
			}
			if !apart(w.Offset, w.Type.Size(), f.Offset, f.Type.Size()) {
				t.Errorf("Mem.%s (offset %d) can share a cache line with Mem.%s (offset %d)", name, w.Offset, f.Name, f.Offset)
			}
		}
	}
}
