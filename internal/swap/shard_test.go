package swap

import (
	"sync"
	"testing"

	"uvm/internal/sim"
)

// Tests for the sharded allocator: shard sizing, cluster containment,
// and a -race stress of concurrent alloc/free from many goroutines (the
// pattern of concurrent reclaim passes and pageins).

func TestShardCountScalesWithDeviceSize(t *testing.T) {
	cases := []struct {
		slots int64
		want  int
	}{
		{8, 1},      // tiny test devices stay single-shard (deterministic)
		{1024, 1},   // still too small to split
		{2048, 2},   // the first size worth splitting
		{8192, 8},   // capped at maxShards
		{32768, 8},  // a 128 MB partition
		{100000, 8}, // shard cap holds for any size
	}
	for _, c := range cases {
		s, _ := newTestSwap(c.slots)
		if got := len(s.shards); got != c.want {
			t.Errorf("%d slots: %d shards, want %d", c.slots, got, c.want)
		}
	}
}

func TestShardedDeviceStillFillsCompletely(t *testing.T) {
	// Every slot must be reachable even though allocation rotates shards.
	const slots = 2048 // 2 shards
	s, _ := newTestSwap(slots)
	if len(s.shards) != 2 {
		t.Fatalf("want a sharded device, got %d shards", len(s.shards))
	}
	seen := make(map[int64]bool)
	for i := 0; i < slots; i++ {
		slot, err := s.Alloc()
		if err != nil {
			t.Fatalf("alloc %d of %d: %v", i, slots, err)
		}
		if seen[slot] {
			t.Fatalf("slot %d handed out twice", slot)
		}
		seen[slot] = true
	}
	if _, err := s.Alloc(); err == nil {
		t.Fatal("allocated beyond capacity")
	}
	if s.SlotsInUse() != slots {
		t.Fatalf("in use = %d, want %d", s.SlotsInUse(), slots)
	}
}

func TestClusterNeverSpansShards(t *testing.T) {
	const slots = 4096 // 4 shards of 1024
	s, _ := newTestSwap(slots)
	if len(s.shards) != 4 {
		t.Fatalf("want 4 shards, got %d", len(s.shards))
	}
	shardSize := int64(slots / 4)
	for i := 0; i < 40; i++ {
		start, err := s.AllocContig(64)
		if err != nil {
			t.Fatal(err)
		}
		if start/shardSize != (start+63)/shardSize {
			t.Fatalf("cluster [%d,%d] crosses the shard boundary at %d",
				start, start+63, (start/shardSize+1)*shardSize)
		}
	}
}

// TestConcurrentAllocFreeStress drives the allocator the way concurrent
// reclaim does: many goroutines mixing single-slot allocs, cluster
// allocs and frees. Run with -race. At the end the accounting must be
// exact and every slot freeable.
func TestConcurrentAllocFreeStress(t *testing.T) {
	const (
		slots   = 16384 // 8 shards
		workers = 8
		rounds  = 400
	)
	s, stats := newTestSwap(slots)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rng := sim.NewRNG(seed + 1)
			type held struct {
				slot int64
				n    int
			}
			var mine []held
			for r := 0; r < rounds; r++ {
				switch {
				case rng.Intn(3) == 0 && len(mine) > 0:
					// Free a random holding.
					i := rng.Intn(len(mine))
					s.FreeRange(mine[i].slot, mine[i].n)
					mine[i] = mine[len(mine)-1]
					mine = mine[:len(mine)-1]
				case rng.Intn(2) == 0:
					if slot, err := s.Alloc(); err == nil {
						mine = append(mine, held{slot, 1})
					}
				default:
					n := 1 + rng.Intn(64)
					if slot, err := s.AllocContig(n); err == nil {
						mine = append(mine, held{slot, n})
					}
				}
			}
			for _, h := range mine {
				s.FreeRange(h.slot, h.n)
			}
		}(uint64(w))
	}
	wg.Wait()
	if got := s.SlotsInUse(); got != 0 {
		t.Fatalf("slots leaked: %d still in use", got)
	}
	if live := stats.Get(sim.CtrSwapSlotsLive); live != 0 {
		t.Fatalf("live-slot counter drifted: %d", live)
	}
	for i := int64(0); i < slots; i++ {
		if s.inUse(i) {
			t.Fatalf("slot %d still marked in use after all frees", i)
		}
	}
	// The whole space is allocatable again.
	if _, err := s.AllocContig(64); err != nil {
		t.Fatalf("allocator wedged after stress: %v", err)
	}
}
