package pageidx

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// modelRange is the reference walk: the model's keys in [lo, hi], sorted.
func modelRange(m map[int]int, lo, hi int) []int {
	var keys []int
	for k := range m {
		if k >= lo && k <= hi {
			keys = append(keys, k)
		}
	}
	slices.Sort(keys)
	return keys
}

// check compares x against the model: Len, Get on every key and its
// neighbours, and Range over r.
func check(t *testing.T, x *Index[int], m map[int]int, r [2]int) {
	t.Helper()
	if x.Len() != len(m) {
		t.Fatalf("Len %d, model %d", x.Len(), len(m))
	}
	for k, want := range m {
		for _, i := range []int{k - 1, k, k + 1} {
			got, ok := x.Get(i)
			mv, mok := m[i]
			if ok != mok || got != mv {
				t.Fatalf("Get(%d) = %d, %v; model %d, %v (set at %d = %d)", i, got, ok, mv, mok, k, want)
			}
		}
	}
	var got []int
	for i, v := range x.Range(r[0], r[1]) {
		if v != m[i] {
			t.Fatalf("Range(%d, %d) yields %d = %d, model %d", r[0], r[1], i, v, m[i])
		}
		got = append(got, i)
	}
	if want := modelRange(m, r[0], r[1]); !slices.Equal(got, want) {
		t.Fatalf("Range(%d, %d) = %v, want %v", r[0], r[1], got, want)
	}
}

// TestIndexAgainstModel runs seeded random Set/Delete against a map
// model, with indices on both sides of leaf boundaries (63, 64, 65), at
// 2^40 and beyond, and at the top of int, and checks Get, Len and Range
// after every step — empty, inverted and whole-int ranges included.
func TestIndexAgainstModel(t *testing.T) {
	keys := []int{0, 1, 62, 63, 64, 65, 127, 128, 129, 1000, 1 << 40, 1<<40 + 63, 1<<40 + 64, 1 << 52, 1<<52 + 1, math.MaxInt - 64, math.MaxInt - 1, math.MaxInt}
	ranges := [][2]int{
		{0, math.MaxInt}, {63, 65}, {64, 64}, {65, 63}, {1, 0}, {66, 126},
		{0, 63}, {1 << 40, 1<<40 + 64}, {200, 1<<40 - 1}, {math.MaxInt - 64, math.MaxInt}, {math.MaxInt, math.MaxInt},
	}
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var x Index[int]
		m := map[int]int{}
		check(t, &x, m, ranges[0])
		for step := 0; step < 600; step++ {
			k := keys[rng.Intn(len(keys))]
			if rng.Intn(3) == 0 {
				k = rng.Intn(300)
			}
			if rng.Intn(5) < 3 {
				x.Set(k, step)
				m[k] = step
			} else {
				x.Delete(k)
				delete(m, k)
			}
			check(t, &x, m, ranges[rng.Intn(len(ranges))])
		}
	}
}

// TestIndexRangeWhileEditing: a Range body that deletes the index it was
// handed and sets one index behind it and one ahead goes on from the
// index after the one it was handed: it sees the later one and never the
// earlier one. A Range value can be ranged over again.
func TestIndexRangeWhileEditing(t *testing.T) {
	var x Index[int]
	for _, i := range []int{10, 64, 200} {
		x.Set(i, i)
	}
	var got []int
	for i := range x.Range(0, math.MaxInt) {
		got = append(got, i)
		x.Delete(i)
		if i == 64 {
			x.Set(5, 5)    // behind the walk
			x.Set(65, 65)  // next in the same leaf
			x.Set(1000, 0) // in a leaf made mid-walk
		}
	}
	if want := []int{10, 64, 65, 200, 1000}; !slices.Equal(got, want) {
		t.Fatalf("walk saw %v, want %v", got, want)
	}
	if v, ok := x.Get(5); x.Len() != 1 || !ok || v != 5 {
		t.Fatalf("after the walk: Len %d, Get(5) = %d, %v; want 1, 5, true", x.Len(), v, ok)
	}
	// A Range value walks from lo every time it is ranged over.
	seq := x.Range(0, math.MaxInt)
	for walk := 0; walk < 2; walk++ {
		n := 0
		for range seq {
			n++
		}
		if n != 1 {
			t.Fatalf("walk %d of one Range value saw %d indices, want 1", walk, n)
		}
	}
}

// TestIndexCycleAllocs: once its leaves exist, a Set/Delete/Range cycle
// over a 16-page run allocates nothing.
func TestIndexCycleAllocs(t *testing.T) {
	var x Index[*int]
	v := new(int)
	cycle := func() {
		for i := 60; i < 76; i++ {
			x.Set(i, v)
		}
		for i := range x.Range(60, 75) {
			x.Delete(i)
		}
	}
	cycle()
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Fatalf("warm Set/Delete/Range cycle allocates %v objects, want 0", n)
	}
	if x.Len() != 0 {
		t.Fatalf("Len %d after the cycle, want 0", x.Len())
	}
}
