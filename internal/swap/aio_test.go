package swap

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"uvm/internal/disk"
	"uvm/internal/param"
	"uvm/internal/sim"
)

func pageOf(b byte) []byte {
	buf := make([]byte, param.PageSize)
	for i := range buf {
		buf[i] = b
	}
	return buf
}

func TestWriteClusterAsyncRoundTrip(t *testing.T) {
	s, stats := newTestSwap(64)
	start, err := s.AllocContig(4)
	if err != nil {
		t.Fatal(err)
	}
	bufs := make([][]byte, 4)
	for i := range bufs {
		bufs[i] = pageOf(byte(0x10 + i))
	}
	done := make(chan error, 1)
	s.WriteClusterAsync(start, bufs, func(err error) { done <- err })
	if err := <-done; err != nil {
		t.Fatalf("completion: %v", err)
	}
	s.writer.Drain()
	if got := s.writer.InFlight(); got != 0 {
		t.Fatalf("in flight after drain = %d", got)
	}
	if got := stats.Get(sim.CtrSwapAIOWrites); got != 1 {
		t.Fatalf("aio writes = %d", got)
	}
	if got := stats.Get(sim.CtrSwapAIOPages); got != 4 {
		t.Fatalf("aio pages = %d", got)
	}
	// The data must be durably readable, slot by slot and as a cluster.
	rd := make([][]byte, 4)
	for i := range rd {
		rd[i] = make([]byte, param.PageSize)
	}
	if err := s.ReadBlocks(start, rd); err != nil {
		t.Fatal(err)
	}
	for i := range rd {
		if rd[i][0] != byte(0x10+i) || rd[i][param.PageSize-1] != byte(0x10+i) {
			t.Fatalf("slot %d read back %#x", i, rd[i][0])
		}
	}
}

// TestWriteClusterAsyncWindow checks the in-flight window: with
// the disk's I/O gated shut, exactly `window` writes are admitted and
// the next submission blocks until a completion opens a slot.
func TestWriteClusterAsyncWindow(t *testing.T) {
	clock := sim.NewClock()
	costs := sim.DefaultCosts()
	stats := sim.NewStats()
	dev := disk.New(clock, costs, stats, 1024)
	s := New(clock, costs, stats, dev)
	const window = 2
	s.SetAIOWindow(window)

	gate := make(chan struct{})
	dev.FailWrite = func(int64) error { <-gate; return nil }

	var completions atomic.Int32
	submit := func() {
		start, err := s.AllocContig(2)
		if err != nil {
			t.Error(err)
			return
		}
		bufs := [][]byte{pageOf(1), pageOf(2)}
		s.WriteClusterAsync(start, bufs, func(error) { completions.Add(1) })
	}
	for i := 0; i < window; i++ {
		submit() // admitted immediately: the window has room
	}
	if got := s.writer.InFlight(); got != window {
		t.Fatalf("in flight = %d, want %d", got, window)
	}
	extraAdmitted := make(chan struct{})
	go func() {
		submit() // must block until a completion frees a window slot
		close(extraAdmitted)
	}()
	select {
	case <-extraAdmitted:
		t.Fatal("submission beyond the window was admitted while the device was gated")
	default:
	}
	close(gate) // let the writes finish
	<-extraAdmitted
	s.writer.Drain()
	if got := completions.Load(); got != window+1 {
		t.Fatalf("completions = %d, want %d", got, window+1)
	}
}

func TestWriteClusterAsyncReportsWriteError(t *testing.T) {
	clock := sim.NewClock()
	costs := sim.DefaultCosts()
	stats := sim.NewStats()
	dev := disk.New(clock, costs, stats, 256)
	s := New(clock, costs, stats, dev)
	dev.FailWrite = func(int64) error { return fmt.Errorf("injected") }
	start, err := s.AllocContig(2)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	s.WriteClusterAsync(start, [][]byte{pageOf(1), pageOf(2)}, func(err error) { done <- err })
	if err := <-done; err == nil {
		t.Fatal("injected write error not delivered to the completion")
	}
	s.writer.Drain()
}

// TestReadClusterAcrossShards: shards partition the *allocator*, not the
// device, so a read run crossing a shard boundary inside one device is a
// single legal I/O.
func TestReadClusterAcrossShards(t *testing.T) {
	s, _ := newTestSwap(4096) // big enough to split into multiple shards
	if len(s.shards) < 2 {
		t.Fatalf("fixture not sharded: %d", len(s.shards))
	}
	boundary := s.shardSize // first slot of the second shard
	// Write a recognisable pattern across the boundary, slot by slot.
	for i := int64(-2); i < 2; i++ {
		if err := s.WriteCluster(boundary+i, [][]byte{pageOf(byte(0x40 + i))}); err != nil {
			t.Fatal(err)
		}
	}
	rd := make([][]byte, 4)
	for i := range rd {
		rd[i] = make([]byte, param.PageSize)
	}
	if err := s.ReadBlocks(boundary-2, rd); err != nil {
		t.Fatalf("read across shard boundary: %v", err)
	}
	for i := range rd {
		want := byte(0x40 + int64(i) - 2)
		if rd[i][0] != want {
			t.Fatalf("slot %d: got %#x want %#x", i, rd[i][0], want)
		}
	}
}

// TestClusterIOPastDeviceEnd: a run that reaches past the swap disk's
// last slot is rejected by the disk's range check, synchronously or
// through the completion, and moves no data.
func TestClusterIOPastDeviceEnd(t *testing.T) {
	const slots = 8
	async := func(s *Swap, start int64, bufs [][]byte) error {
		done := make(chan error, 1)
		s.WriteClusterAsync(start, bufs, func(err error) { done <- err })
		return <-done
	}
	for _, c := range []struct {
		name  string
		start int64
		n     int
		io    func(s *Swap, start int64, bufs [][]byte) error
	}{
		{"read/last-slot-plus-one", slots - 1, 2, (*Swap).ReadBlocks},
		{"read/past-end", slots, 1, (*Swap).ReadBlocks},
		{"read/negative", -1, 2, (*Swap).ReadBlocks},
		{"write/last-slot-plus-one", slots - 1, 2, (*Swap).WriteCluster},
		{"write/past-end", slots, 1, (*Swap).WriteCluster},
		{"async/last-slot-plus-one", slots - 1, 2, async},
		{"async/past-end", slots, 1, async},
	} {
		t.Run(c.name, func(t *testing.T) {
			s, stats := newTestSwap(slots)
			bufs := make([][]byte, c.n)
			for i := range bufs {
				bufs[i] = pageOf(0xee)
			}
			if err := c.io(s, c.start, bufs); !errors.Is(err, disk.ErrOutOfRange) {
				t.Fatalf("I/O of %d slots at %d on a %d-slot disk: err = %v, want ErrOutOfRange", c.n, c.start, slots, err)
			}
			if r, w := stats.Get(sim.CtrDiskReads), stats.Get(sim.CtrDiskWrites)+stats.Get(sim.CtrDiskWritesDeferred); r != 0 || w != 0 {
				t.Fatalf("rejected I/O reached the medium: %d reads, %d writes", r, w)
			}
			last := make([]byte, param.PageSize)
			if err := s.ReadSlot(slots-1, last); err != nil || last[0] != 0 {
				t.Fatalf("last slot after a rejected run: %#x, %v", last[0], err)
			}
		})
	}
}

// TestAsyncWritesRaceReads drives concurrent async cluster writes,
// single-slot reads and cluster reads over one device under -race: the
// AIO engine must not corrupt data it has acknowledged.
func TestAsyncWritesRaceReads(t *testing.T) {
	s, _ := newTestSwap(4096)
	const writers = 4
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for iter := 0; iter < 40; iter++ {
				n := 2 + (iter % 3)
				start, err := s.AllocContig(n)
				if err != nil {
					t.Error(err)
					return
				}
				bufs := make([][]byte, n)
				for i := range bufs {
					bufs[i] = pageOf(byte(start + int64(i)))
				}
				done := make(chan error, 1)
				s.WriteClusterAsync(start, bufs, func(err error) { done <- err })
				if err := <-done; err != nil {
					t.Error(err)
					return
				}
				// Read the acknowledged cluster back both ways.
				rd := make([][]byte, n)
				for i := range rd {
					rd[i] = make([]byte, param.PageSize)
				}
				if err := s.ReadBlocks(start, rd); err != nil {
					t.Error(err)
					return
				}
				for i := range rd {
					if rd[i][0] != byte(start+int64(i)) {
						t.Errorf("cluster read slot %d: got %#x", i, rd[i][0])
						return
					}
				}
				one := make([]byte, param.PageSize)
				if err := s.ReadSlot(start, one); err != nil {
					t.Error(err)
					return
				}
				if one[0] != byte(start) {
					t.Errorf("slot read: got %#x", one[0])
					return
				}
				s.FreeRange(start, n)
			}
		}(w)
	}
	wg.Wait()
	s.writer.Drain()
	if got := s.writer.InFlight(); got != 0 {
		t.Fatalf("in flight after drain = %d", got)
	}
}
