package disk

import (
	"errors"
	"fmt"
	"sync"
)

// Declarative fault injection.
//
// The FailRead/FailWrite hooks below (on Disk) let a test fail one block
// with an arbitrary error, but they force every fault scenario to be
// coded as a closure at the call site. The fault plan generalises them
// into data: a list of rules, each naming a fault class (read error,
// write error, torn cluster write, whole-device death) and when it
// triggers (a specific block, or the Nth matching command), installable
// from vmapi.MachineConfig so the same workload can run under
// systematically varied fault schedules.
//
// Semantics are physical. A command that faults at block k has already
// moved the first k pages: those pages are durable (writes) or filled
// (reads), the head sits after them, and only k pages are charged and
// counted — see the transfer admission logic in disk.go. A torn cluster
// write is the write-error special case the async pipelines care most
// about: the first TornPages pages land and the rest of the cluster
// fails. Device death is sticky: once triggered, every later command on
// the disk fails with ErrDeviceDead without touching the medium.

// ErrInjected is the error reported by injected read/write/torn faults.
var ErrInjected = errors.New("disk: injected I/O error")

// ErrDeviceDead is reported by every command on a disk whose device-death
// fault has triggered (and by Disk.Kill).
var ErrDeviceDead = errors.New("disk: device is dead")

// FaultKind is the class of an injected fault.
type FaultKind uint8

const (
	// FaultReadError fails a read command at the matching block.
	FaultReadError FaultKind = iota
	// FaultWriteError fails a write command at the matching block.
	FaultWriteError
	// FaultTornWrite tears a write command: the first TornPages pages
	// land on the medium, the rest of the command fails.
	FaultTornWrite
	// FaultDeviceDeath kills the whole device at the matching command;
	// it and every later command fail with ErrDeviceDead.
	FaultDeviceDeath
)

// String names the fault kind for reports.
func (k FaultKind) String() string {
	switch k {
	case FaultReadError:
		return "read-error"
	case FaultWriteError:
		return "write-error"
	case FaultTornWrite:
		return "torn-write"
	case FaultDeviceDeath:
		return "device-death"
	}
	return fmt.Sprintf("fault-kind-%d", uint8(k))
}

// BlockAny makes a rule match every command of its direction regardless
// of the blocks it touches.
const BlockAny int64 = -1

// FaultRule is one declarative trigger. A rule matches a command when the
// command's direction fits the rule's Kind (reads for FaultReadError,
// writes for FaultTornWrite/FaultWriteError, either for
// FaultDeviceDeath) and the command's block range contains Block (or
// Block is BlockAny). The first AfterOps matching commands pass
// untouched; then the rule fires on every match until it has fired Count
// times (Count 0 = forever).
type FaultRule struct {
	Kind     FaultKind
	Block    int64 // block that triggers the rule; BlockAny = any command
	AfterOps int64 // matching commands to let through before firing
	Count    int64 // times to fire; 0 = every match forever
	// TornPages is how many pages of a torn write land (FaultTornWrite
	// only). Clamped to the command length minus one, so a torn write
	// always fails at least its last page.
	TornPages int
}

// FaultPlan is an installable schedule of fault rules for one Disk.
// Rules are evaluated in order per command; the first one that fires
// decides the command's fate. A FaultPlan must not be shared between
// disks (its trigger counters are per-device state).
type FaultPlan struct {
	//uvm:lock leaf
	mu    sync.Mutex
	rules []FaultRule
	seen  []int64 // matching commands observed, per rule
	fired []int64 // times fired, per rule
}

// NewFaultPlan builds a plan from rules (evaluated in order).
func NewFaultPlan(rules ...FaultRule) *FaultPlan {
	return &FaultPlan{
		rules: append([]FaultRule(nil), rules...),
		seen:  make([]int64, len(rules)),
		fired: make([]int64, len(rules)),
	}
}

// Fired returns how many times rule i has fired (test/report helper).
func (p *FaultPlan) Fired(i int) int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.fired[i]
}

// admit decides the fate of one command of n blocks at start: how many
// pages transfer before the fault (n = the whole command, no fault), the
// error to report, and whether the device dies. Called by the disk with
// d.mu held.
func (p *FaultPlan) admit(start int64, n int, write bool) (k int, die bool, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i := range p.rules {
		r := &p.rules[i]
		switch r.Kind {
		case FaultReadError:
			if write {
				continue
			}
		case FaultWriteError, FaultTornWrite:
			if !write {
				continue
			}
		case FaultDeviceDeath:
			// matches either direction
		default:
			continue
		}
		if r.Block != BlockAny && (r.Block < start || r.Block >= start+int64(n)) {
			continue
		}
		p.seen[i]++
		if p.seen[i] <= r.AfterOps {
			continue
		}
		if r.Count > 0 && p.fired[i] >= r.Count {
			continue
		}
		p.fired[i]++
		switch r.Kind {
		case FaultReadError, FaultWriteError:
			if r.Block != BlockAny {
				return int(r.Block - start), false, ErrInjected
			}
			return 0, false, ErrInjected
		case FaultTornWrite:
			k := r.TornPages
			if k >= n {
				k = n - 1
			}
			if k < 0 {
				k = 0
			}
			return k, false, ErrInjected
		case FaultDeviceDeath:
			return 0, true, ErrDeviceDead
		}
	}
	return n, false, nil
}
