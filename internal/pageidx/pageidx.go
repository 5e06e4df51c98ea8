// Package pageidx is the ordered page index under both VM systems'
// objects: an object's resident pages and its swap slots, keyed by page
// index and walked in ascending index order — the order the pager moves
// pages in (§6), and the order that decides the disk head's path.
//
// The layout is the page table's (internal/pmap) at object scale: a
// directory of leaves sorted by base index and binary-searched, each leaf
// 64 consecutive indices with a presence bitmap. An index far from the
// others costs one leaf, so a mapping at a large file offset needs no
// dense array.
package pageidx

import (
	"cmp"
	"iter"
	"math/bits"
	"slices"
)

const leafSize = 64

// Index maps page indices to values of T. The zero value is empty and
// ready to use. A leaf, once made, stays until the Index is dropped, so
// setting and deleting indices in a range already used allocates
// nothing. The owner's lock covers every call.
type Index[T any] struct {
	dir []*leaf[T] // ascending base
	n   int
}

type leaf[T any] struct {
	base    int    // first index, a multiple of leafSize
	present uint64 // bit j: index base+j is set
	v       [leafSize]T
}

// find returns the directory position of the leaf that holds i, or where
// it would go, and whether it is there.
func (x *Index[T]) find(i int) (int, bool) {
	return slices.BinarySearchFunc(x.dir, i&^(leafSize-1), func(l *leaf[T], base int) int { return cmp.Compare(l.base, base) })
}

// slot returns the leaf that holds i, nil if there is none, and i's bit
// in it.
func (x *Index[T]) slot(i int) (*leaf[T], uint64) {
	if k, ok := x.find(i); ok {
		return x.dir[k], 1 << (i & (leafSize - 1))
	}
	return nil, 0
}

// Len returns the number of indices set.
func (x *Index[T]) Len() int { return x.n }

// Get returns the value at i and whether i is set.
func (x *Index[T]) Get(i int) (v T, ok bool) {
	if l, bit := x.slot(i); l != nil && l.present&bit != 0 {
		return l.v[i&(leafSize-1)], true
	}
	return v, false
}

// Set stores v at i.
func (x *Index[T]) Set(i int, v T) {
	k, ok := x.find(i)
	if !ok {
		x.dir = slices.Insert(x.dir, k, &leaf[T]{base: i &^ (leafSize - 1)})
	}
	l, bit := x.dir[k], uint64(1)<<(i&(leafSize-1))
	if l.present&bit == 0 {
		x.n++
	}
	l.present |= bit
	l.v[i&(leafSize-1)] = v
}

// Delete unsets i, if it is set.
func (x *Index[T]) Delete(i int) {
	if l, bit := x.slot(i); l != nil && l.present&bit != 0 {
		var zero T
		l.present &^= bit
		l.v[i&(leafSize-1)] = zero
		x.n--
	}
}

// Range walks the set indices in [lo, hi] in ascending order. Each step
// looks the next index up afresh, so the loop body may set and delete
// indices, or drop and retake the owner's lock: the walk goes on from the
// index after the one it yielded.
func (x *Index[T]) Range(lo, hi int) iter.Seq2[int, T] {
	return func(yield func(int, T) bool) {
		for at := lo; at <= hi; {
			i, v, ok := x.next(at, hi)
			if !ok || !yield(i, v) || i == hi {
				return
			}
			at = i + 1
		}
	}
}

// next returns the least set index in [lo, hi] and its value.
func (x *Index[T]) next(lo, hi int) (i int, v T, ok bool) {
	for k, _ := x.find(lo); k < len(x.dir) && x.dir[k].base <= hi; k++ {
		l := x.dir[k]
		if set := l.present & (^uint64(0) << max(lo-l.base, 0)); set != 0 {
			i = l.base + bits.TrailingZeros64(set)
			return i, l.v[i-l.base], i <= hi
		}
	}
	return 0, v, false
}
