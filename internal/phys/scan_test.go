package phys

import (
	"sync"
	"sync/atomic"
	"testing"

	"uvm/internal/sim"
)

// scanReference is the inactive scan as it was before the lazy merge, kept
// here as the order the merge is checked against: snapshot up to max
// candidates per shard, sort the lot by stamp, keep the first max.
func scanReference(m *Mem, max int) []*Page {
	type candidate struct {
		p   *Page
		seq uint64
	}
	var cand []candidate
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.Lock()
		cnt := 0
		for p := sh.inactive.head; p != nil && cnt < max; p = p.next {
			if p.Busy.Load() || p.WireCount.Load() > 0 || p.LoanCount.Load() > 0 {
				continue
			}
			cand = append(cand, candidate{p, p.seq})
			cnt++
		}
		sh.mu.Unlock()
	}
	for i := 1; i < len(cand); i++ {
		c := cand[i]
		j := i - 1
		for j >= 0 && cand[j].seq > c.seq {
			cand[j+1] = cand[j]
			j--
		}
		cand[j+1] = c
	}
	if len(cand) > max {
		cand = cand[:max]
	}
	out := make([]*Page, len(cand))
	for i, c := range cand {
		out[i] = c.p
	}
	return out
}

// scanVisits runs the scan, stopping after stop visits (never, if stop is
// negative), and returns what it visited.
func scanVisits(m *Mem, max, stop int) []*Page {
	var got []*Page
	m.ScanInactive(max, func(p *Page) bool {
		got = append(got, p)
		return len(got) != stop
	})
	return got
}

// randomQueues boots a machine and drives its frames into a random queue
// state: free, active, inactive, some of the inactive ones busy, wired or
// loaned (the scan skips those), and some neighbours in an inactive list
// carrying each other's stamps — what two goroutines that stamped and then
// queued in opposite order leave behind.
func randomQueues(r *sim.RNG) *Mem {
	m := newTestMem(16 + r.Intn(600))
	var pages []*Page
	for {
		p, err := m.Alloc(nil, 0, false)
		if err != nil {
			break
		}
		pages = append(pages, p)
	}
	inactiveOf := 1 + r.Intn(10) // of ten: from a nearly empty to a full inactive queue
	for _, i := range r.Perm(len(pages)) {
		p := pages[i]
		switch k := r.Intn(12); {
		case k < inactiveOf:
			m.Deactivate(p)
			switch r.Intn(16) {
			case 0:
				p.Busy.Store(true)
			case 1:
				p.WireCount.Store(1)
			case 2:
				p.LoanCount.Store(1)
			}
		case k < 10:
			m.Activate(p)
		default:
			m.Free(p)
		}
	}
	for i := range m.shards {
		for p := m.shards[i].inactive.head; p != nil && p.next != nil; p = p.next {
			if r.Intn(6) == 0 {
				p.seq, p.next.seq = p.next.seq, p.seq
			}
		}
	}
	return m
}

// TestScanMergeMatchesSortedSnapshot: over random queue states and limits
// below and above the queue depth, the lazy merge of all sixteen shards
// visits exactly the pages, in exactly the order, that sorting the whole
// snapshot did — and a visitor that stops after any number of pages has
// seen exactly that prefix.
func TestScanMergeMatchesSortedSnapshot(t *testing.T) {
	r := sim.NewRNG(20)
	states := 60
	if testing.Short() {
		states = 15
	}
	for state := 0; state < states; state++ {
		m := randomQueues(r)
		depth := m.InactivePages()
		maxes := []int{1, depth/NumShards + 1, depth, 4*depth + 7}
		for trial := 0; trial < 4; trial++ {
			maxes = append(maxes, 1+r.Intn(depth+1))
		}
		for _, max := range maxes {
			want := scanReference(m, max)
			for stop := -1; stop <= len(want)+1; stop++ {
				if stop == 0 {
					continue // a visitor cannot stop before its first page
				}
				wantN := len(want)
				if stop > 0 && stop < wantN {
					wantN = stop
				}
				got := scanVisits(m, max, stop)
				if len(got) != wantN {
					t.Fatalf("state %d max %d stop %d: visited %d pages, want %d",
						state, max, stop, len(got), wantN)
				}
				for i, p := range got {
					if p != want[i] {
						t.Fatalf("state %d max %d stop %d: visit %d is frame %#x (stamp %d), want %#x (stamp %d)",
							state, max, stop, i, p.PA, p.seq, want[i].PA, want[i].seq)
					}
				}
			}
		}
	}
}

// TestScanMergeConcurrentQueueTraffic scans while other goroutines move
// the same frames between the queues and the free list. No reference order
// exists for a moving queue, so the scan is held to what must hold anyway:
// at most max pages, none twice. Under -race this is also the check that
// the snapshot copies every stamp it compares out from under the shard
// lock.
func TestScanMergeConcurrentQueueTraffic(t *testing.T) {
	m := newTestMem(512)
	var pages []*Page
	for i := 0; i < 384; i++ {
		p, err := m.Alloc(nil, 0, false)
		if err != nil {
			t.Fatal(err)
		}
		m.Deactivate(p)
		pages = append(pages, p)
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := sim.NewRNG(uint64(w) + 1)
			// Each worker owns a third of the frames, so Free never races
			// another worker's use of the same frame.
			mine := pages[w*128 : (w+1)*128]
			for !stop.Load() {
				i := r.Intn(len(mine))
				switch r.Intn(4) {
				case 0:
					m.Activate(mine[i])
				case 1, 2:
					m.Deactivate(mine[i])
				default:
					m.Free(mine[i])
					p, err := m.Alloc(nil, 0, false)
					if err != nil {
						t.Error(err)
						return
					}
					m.Deactivate(p)
					mine[i] = p
				}
			}
		}()
	}
	r := sim.NewRNG(99)
	rounds := 400
	if testing.Short() {
		rounds = 100
	}
	for round := 0; round < rounds; round++ {
		max := 1 + r.Intn(600)
		seen := make(map[*Page]bool)
		m.ScanInactive(max, func(p *Page) bool {
			if seen[p] {
				t.Errorf("round %d: frame %#x visited twice", round, p.PA)
			}
			seen[p] = true
			return true
		})
		if len(seen) > max {
			t.Errorf("round %d: visited %d pages, limit %d", round, len(seen), max)
		}
	}
	stop.Store(true)
	wg.Wait()
}

// TestScanInactiveAllocs: a scan whose snapshot fits scanStack candidates
// allocates nothing — the snapshot and the merge state live on the
// scanner's stack.
func TestScanInactiveAllocs(t *testing.T) {
	m := newTestMem(scanStack)
	for i := 0; i < scanStack; i++ {
		p, err := m.Alloc(nil, 0, false)
		if err != nil {
			t.Fatal(err)
		}
		m.Deactivate(p)
	}
	visited := 0
	allocs := testing.AllocsPerRun(20, func() {
		visited = 0
		m.ScanInactive(scanStack, func(*Page) bool {
			visited++
			return true
		})
	})
	if visited != scanStack {
		t.Fatalf("visited %d pages, want %d", visited, scanStack)
	}
	if allocs != 0 {
		t.Errorf("one scan over %d candidates allocates %.0f times, want 0", scanStack, allocs)
	}
}
