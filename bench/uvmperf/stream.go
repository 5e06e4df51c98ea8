package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"sort"

	"uvm/internal/sim"
)

// streamLen is each client's pre-generated request count. The timed
// phase walks the stream cyclically, so a faster program under test
// never runs out of inputs; 1<<17 requests is more than any workload
// completes per client in ten seconds on the 2-core host, so a default
// run seldom wraps.
const streamLen = 1 << 17

// request is one pre-generated input. The generators fill only the
// fields their workload reads; everything is fixed-width so the stream
// encodes to a stable byte string (streamHash).
type request struct {
	Kind   uint8     // workload-specific request kind (k* constants)
	Check  bool      // oracle request: tagged ReadBytes/WriteBytes instead of bare Access
	File   uint16    // corpus file index
	Tenant uint16    // tenant process index (tenant_mix)
	Off    [4]uint16 // page offsets within the file / region
}

// Request kinds. A workload uses a subset.
const (
	kMmapAnon  uint8 = iota // mmap anon, write-touch, munmap
	kForkCOW                // fork, child rewrites, exit, parent rewrites
	kServe                  // open, mmap RO shared, read-touch, munmap, unref
	kFileWrite              // open, mmap RW shared, write-touch, msync, munmap, unref
	kRuns                   // four 4-page runs, alternating write/read
	kAnonDirty              // dirty a window of a tenant's anon region
)

// oracleEvery is the oracle cadence: request i of a client's stream is
// a checked request when i%oracleEvery == oracleEvery-1.
const oracleEvery = 16

// zipf samples indices in [0, n) with probability proportional to
// 1/(i+1)^s, by binary search over a cumulative weight table — the same
// construction internal/workload's traffic driver uses (its sampler is
// unexported, so it is rebuilt here and tested against the closed form).
type zipf struct {
	cum []float64
}

func newZipf(n int, s float64) *zipf {
	z := &zipf{cum: make([]float64, n)}
	acc := 0.0
	for i := range z.cum {
		acc += 1 / math.Pow(float64(i+1), s)
		z.cum[i] = acc
	}
	return z
}

func (z *zipf) sample(r *sim.RNG) int {
	u := float64(r.Uint64()>>11) / (1 << 53) * z.cum[len(z.cum)-1]
	return sort.SearchFloat64s(z.cum, u)
}

// clientRNG returns the generator for one client's stream.
func clientRNG(seed uint64, client int) *sim.RNG {
	return sim.NewRNG(seed*0x9e3779b97f4a7c15 + uint64(client)*0xbf58476d1ce4e5b9 + 1)
}

// streamHash is the hex SHA-256 of every client's encoded stream and of
// the file names the requests refer to: the identity of a run's inputs.
func streamHash(streams [][]request, names []string) string {
	h := sha256.New()
	var buf [14]byte
	for _, st := range streams {
		for i := range st {
			r := &st[i]
			buf[0] = r.Kind
			buf[1] = 0
			if r.Check {
				buf[1] = 1
			}
			binary.LittleEndian.PutUint16(buf[2:], r.File)
			binary.LittleEndian.PutUint16(buf[4:], r.Tenant)
			for j, o := range r.Off {
				binary.LittleEndian.PutUint16(buf[6+2*j:], o)
			}
			h.Write(buf[:])
		}
	}
	for _, n := range names {
		h.Write([]byte(n))
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))
}
