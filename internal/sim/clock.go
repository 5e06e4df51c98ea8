// Package sim provides the simulation substrate shared by every layer of
// the reproduced kernel: a virtual clock, a calibrated table of primitive
// operation costs, statistics counters, and a deterministic RNG.
//
// The paper's measurements (Tables 2-3, Figures 2, 5, 6) were taken on a
// 333 MHz Pentium-II with a late-1990s IDE disk. Absolute times are not
// reproducible outside that testbed, but the *shape* of every result —
// which system wins, by what factor, and where curves cross — is a
// function of how many primitive operations each VM design performs
// multiplied by the relative cost of those primitives. Both VM systems in
// this repository run against the same clock and the same cost table, so
// all measured differences are algorithmic.
package sim

import (
	"sync/atomic"
	"time"
)

// CacheLinePad is one cache line of padding: 64 bytes, the line size of
// Go's amd64 target. Placed between two words that different cores write,
// it keeps them on different lines, so a store to one does not take the
// other's line away from the core working on it.
type CacheLinePad struct{ _ [cacheLine]byte }

const cacheLine = 64

// Clock is a virtual clock. Components charge time to it as they perform
// simulated work; experiments read it to produce "measured" durations.
// All methods are safe for concurrent use.
//
// Every layer on every core advances the one clock, so the clock fills a
// whole line: an 8-byte object would share a 16-byte block of Go's tiny
// allocator, and with it a line, with whatever was allocated next to it.
type Clock struct {
	now atomic.Int64 // virtual nanoseconds since boot
	_   [cacheLine - 8]byte
}

// NewClock returns a clock at virtual time zero.
func NewClock() *Clock { return &Clock{} }

// Now returns the current virtual time.
func (c *Clock) Now() time.Duration { return time.Duration(c.now.Load()) }

// Advance moves the clock forward by d. Negative advances are ignored so a
// buggy cost computation can never move time backwards.
func (c *Clock) Advance(d time.Duration) {
	if d > 0 {
		c.now.Add(int64(d))
	}
}

// ChargeN advances the clock by n repetitions of a unit cost.
func (c *Clock) ChargeN(n int, unit time.Duration) {
	if n > 0 && unit > 0 {
		c.now.Add(int64(n) * int64(unit))
	}
}

// Since returns the virtual time elapsed since the mark t0.
func (c *Clock) Since(t0 time.Duration) time.Duration { return c.Now() - t0 }
