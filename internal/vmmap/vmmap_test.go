package vmmap

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"uvm/internal/param"
	"uvm/internal/sim"
)

// toy is a map entry whose payload is the page offset its Start maps.
type toy struct {
	Link[toy]
	off int
}

func (t *toy) Shift(n int) { t.off += n }

// seg is the reference model's entry: a range and its offset.
type seg struct {
	start, end param.VAddr
	off        int
}

const pg = param.VAddr(param.PageSize)

// TestListAgainstSortedSliceModel runs random inserts, clips, unlinks,
// FindSpace and lookups against a sorted-slice reference, checking the
// list's integrity, contents and lookup charges after every operation.
func TestListAgainstSortedSliceModel(t *testing.T) {
	const cost = time.Nanosecond
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		clock := sim.NewClock()
		dups := 0
		m := New("model", 4*pg, 132*pg, clock, &sim.Costs{MapLookupEntry: cost}, func(e *toy) *toy {
			dups++
			d := *e
			return &d
		})
		m.AllocMax = 120 * pg
		var ref []seg

		// charged runs f and returns the lookup charges it made.
		charged := func(f func()) int {
			t0 := clock.Now()
			f()
			return int((clock.Now() - t0) / cost)
		}
		randRange := func() (param.VAddr, param.VAddr) {
			a := param.VAddr(rng.Intn(136)) * pg
			return a, a + param.VAddr(1+rng.Intn(12))*pg
		}
		for op := 0; op < 400; op++ {
			switch k := rng.Intn(10); {
			case k < 3: // insert
				start, end := randRange()
				if start < m.min || end > m.max {
					continue
				}
				overlaps := slices.ContainsFunc(ref, func(s seg) bool { return s.start < end && start < s.end })
				e := &toy{off: rng.Intn(1000)}
				e.Start, e.End = start, end
				panicked := func() (p bool) {
					defer func() { p = recover() != nil }()
					m.Insert(e)
					return false
				}()
				if panicked != overlaps {
					t.Fatalf("seed %d op %d: insert %x-%x panicked=%v, overlaps=%v", seed, op, start, end, panicked, overlaps)
				}
				if !overlaps {
					i, _ := slices.BinarySearchFunc(ref, start, func(s seg, v param.VAddr) int { return int(s.start>>param.PageShift) - int(v>>param.PageShift) })
					ref = slices.Insert(ref, i, seg{start, end, e.off})
				}
			case k < 6: // clip
				start, end := randRange()
				before := dups
				var got []*toy
				n := charged(func() { got = m.EntriesIn(start, end) })
				want, splits, walked := refEntriesIn(&ref, start, min(end, m.AllocMax))
				if len(got) != len(want) {
					t.Fatalf("seed %d op %d: EntriesIn(%x, %x) = %d entries, want %d", seed, op, start, end, len(got), len(want))
				}
				for i, e := range got {
					if (seg{e.Start, e.End, e.off}) != want[i] {
						t.Fatalf("seed %d op %d: EntriesIn entry %d = %x-%x@%d, want %+v", seed, op, i, e.Start, e.End, e.off, want[i])
					}
				}
				if dups-before != splits || n != walked {
					t.Fatalf("seed %d op %d: EntriesIn made %d splits and %d charges, want %d and %d", seed, op, dups-before, n, splits, walked)
				}
			case k < 8: // unlink
				if len(ref) == 0 {
					continue
				}
				i := rng.Intn(len(ref))
				e := m.LookupQuiet(ref[i].start)
				m.Unlink(e)
				ref = slices.Delete(ref, i, i+1)
			case k < 9: // find space
				hint := param.VAddr(rng.Intn(136)) * pg
				length := param.VSize(1+rng.Intn(24)) * param.PageSize
				var got param.VAddr
				var err error
				n := charged(func() { got, err = m.FindSpace(hint, length) })
				want, ok, walked := refFindSpace(ref, max(hint, m.min), param.VAddr(length), m.AllocMax)
				if (err == nil) != ok || (ok && got != want) || n != walked {
					t.Fatalf("seed %d op %d: FindSpace(%x, %x) = %x, %v after %d charges, want %x, %v after %d", seed, op, hint, length, got, err, n, want, ok, walked)
				}
			default: // lookup
				va := param.VAddr(rng.Intn(136*param.PageSize)) &^ 7
				var got *toy
				n := charged(func() { got = m.Lookup(va) })
				want, walked := refLookup(ref, va)
				if (got == nil) != (want < 0) || (got != nil && got.Start != ref[want].start) || n != walked {
					t.Fatalf("seed %d op %d: Lookup(%x) wrong or charged %d, want entry %d after %d", seed, op, va, n, want, walked)
				}
			}
			if err := m.Check(nil); err != nil {
				t.Fatalf("seed %d op %d: %v", seed, op, err)
			}
			var all []seg
			for e := range m.All() {
				all = append(all, seg{e.Start, e.End, e.off})
			}
			if !slices.Equal(all, ref) || m.Len() != len(ref) {
				t.Fatalf("seed %d op %d: list %v (len %d), model %v", seed, op, all, m.Len(), ref)
			}
		}
	}
}

// refEntriesIn clips the model at start and end and returns the segments
// in [start, end), the number of splits, and the entries a walk inspects.
func refEntriesIn(ref *[]seg, start, end param.VAddr) (out []seg, splits, walked int) {
	if start >= end {
		return nil, 0, 0
	}
	split := func(va param.VAddr) {
		for i, s := range *ref {
			if s.start < va && va < s.end {
				head := seg{s.start, va, s.off}
				tail := seg{va, s.end, s.off + int((va-s.start)>>param.PageShift)}
				*ref = slices.Replace(*ref, i, i+1, head, tail)
				splits++
				return
			}
		}
	}
	// The walk inspects every entry starting below end, then the first
	// one at or past it: the next entry, or the tail of a split at end.
	for _, s := range *ref {
		walked++
		if s.start >= end {
			break
		}
		if end < s.end {
			walked++
			break
		}
	}
	split(start)
	split(end)
	for _, s := range *ref {
		if s.start >= start && s.end <= end {
			out = append(out, s)
		}
	}
	return out, splits, walked
}

func refFindSpace(ref []seg, start, length, allocMax param.VAddr) (param.VAddr, bool, int) {
	walked := 0
	for _, s := range ref {
		walked++
		if s.end <= start {
			continue
		}
		if s.start >= start && s.start-start >= length {
			return start, true, walked
		}
		start = s.end
	}
	return start, start+length <= allocMax, walked
}

func refLookup(ref []seg, va param.VAddr) (int, int) {
	for i, s := range ref {
		if va >= s.start && va < s.end {
			return i, i + 1
		}
		if s.start > va {
			return -1, i + 1
		}
	}
	return -1, len(ref)
}
