package workload

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"uvm/internal/histogram"
	"uvm/internal/param"
	"uvm/internal/sim"
	"uvm/internal/vmapi"
)

// Run describes one measured run — the one closed-loop driver (Drive)
// behind every experiment that times a machine under load. An experiment
// is a Run plus which counters of the Result it reports.
type Run struct {
	// Machine sizes the fresh machine the run boots (profile and fault
	// plans are fields of it); Boot is the system booted on it.
	Machine vmapi.MachineConfig
	Boot    vmapi.Booter
	// Clients is the number of closed-loop clients, each driven by its
	// own goroutine: a client issues its next request only when the
	// previous one returned. Ops is each client's request count.
	Clients int
	Ops     int
	// Seed feeds the per-client RNGs (client w draws from
	// Seed + w·0x9e3779b97f4a7c15).
	Seed uint64
	// Setup prepares one client — its processes (Client.NewProcess),
	// mappings, files. It is called for clients 0..Clients-1 in order,
	// on the calling goroutine, and every client is set up before the
	// first request runs, so what the clients hold mapped is the same
	// however the host schedules them. Nothing in Setup is timed.
	Setup func(c *Client) error
	// Op issues client c's i-th request. Accesses it makes through
	// Client.Access are timed into the client's histogram shard. A failed
	// request ends the run — unless Machine carries a fault plan: then
	// the error is the behaviour under test, and it is counted
	// (Result.Errors) while the clients keep going.
	Op func(c *Client, i int) error
}

// Client is one closed-loop client of a measured run.
type Client struct {
	ID   int             // 0..Run.Clients-1
	Sys  vmapi.System    // the system the run booted
	RNG  *sim.RNG        // this client's deterministic stream
	Hist *histogram.Hist // this client's latency shard

	procs        []vmapi.Process
	done, failed int64 // requests completed / failed
	err          error // the failed request that ended the run
}

// NewProcess creates a process the run owns: Drive exits it when the run
// ends, whether the run succeeded or not. (Short-lived children an op
// forks and exits itself need no registration.)
func (c *Client) NewProcess(name string) (vmapi.Process, error) {
	p, err := c.Sys.NewProcess(name)
	if err == nil {
		c.procs = append(c.procs, p)
	}
	return p, err
}

// Access performs one access and records its wall-clock latency — a
// failed access's too — in the client's shard.
func (c *Client) Access(p vmapi.Process, addr param.VAddr, write bool) error {
	t0 := time.Now()
	err := p.Access(addr, write)
	c.Hist.Record(time.Since(t0))
	return err
}

// Counters is a Stats snapshot delta, keyed by counter name.
type Counters map[string]int64

// Get returns the named counter's delta (0 if it never moved).
func (c Counters) Get(name string) int64 { return c[name] }

// Result is what one measured run reports.
type Result struct {
	Ops    int64 // requests completed
	Errors int64 // requests that failed (more than one only under a fault plan)
	// Hist holds every timed access of the run (the client shards,
	// merged after the clients join) — the one percentile source.
	Hist *histogram.Hist
	// Wall, Sim and Stats all span the timed phase — first request to
	// last client joined: host time, machine time, and every counter's
	// movement (nil when set-up failed). Teardown is outside all three.
	Wall  time.Duration
	Sim   time.Duration
	Stats Counters
}

// LeakError reports that the post-Shutdown sweep found pages still Busy:
// some path kept a claim it should have released.
type LeakError struct {
	Busy int // pages found Busy
}

// Error names the leak.
func (e *LeakError) Error() string {
	return fmt.Sprintf("%d Busy pages leaked after Shutdown", e.Busy)
}

// Drive executes one measured run: it boots the machine, sets every
// client up, drives each in its own goroutine, joins, and tears down —
// exits the run's processes, calls Shutdown, sweeps for Busy pages — on
// every path. The Result is meaningful on the error paths too (what
// completed before the run stopped); the error is the run's own — a
// set-up failure, or the failed request of each client that had one —
// joined with a *LeakError if the sweep found Busy pages.
func Drive(r Run) (Result, error) {
	if r.Clients <= 0 || r.Ops < 0 {
		return Result{}, fmt.Errorf("workload: Run needs at least one client and a request count (got %d clients, %d ops)", r.Clients, r.Ops)
	}
	if err := r.Machine.Validate(); err != nil {
		return Result{}, err
	}
	mach := vmapi.NewMachine(r.Machine)
	sys := r.Boot(mach)
	res := Result{Hist: histogram.New()}

	var err error
	clients := make([]*Client, 0, r.Clients)
	for id := 0; id < r.Clients && err == nil; id++ {
		c := &Client{ID: id, Sys: sys, Hist: histogram.New(),
			RNG: sim.NewRNG(r.Seed + uint64(id)*0x9e3779b97f4a7c15)}
		clients = append(clients, c)
		err = r.Setup(c)
	}
	if err == nil {
		err = r.timed(mach, clients, &res)
	}

	// Teardown runs whatever happened above: a run that failed half way
	// is where a stranded process or Busy page is likeliest. Processes
	// exit before Shutdown, which waits out the writes their last unmaps
	// start.
	for _, c := range clients {
		for _, p := range c.procs {
			if !p.Exited() {
				p.Exit()
			}
		}
	}
	sys.Shutdown()
	if n := len(mach.Mem.BusyPages()); n > 0 {
		err = errors.Join(err, &LeakError{Busy: n})
	}
	return res, err
}

// timed is the measured phase: every client's request loop in its own
// goroutine, joined, with the deltas taken around it.
func (r Run) timed(mach *vmapi.Machine, clients []*Client, res *Result) error {
	var (
		wg   sync.WaitGroup
		stop atomic.Bool // a client failed: the others stop at their next request
	)
	tolerate := r.Machine.SwapFaultPlan != nil || r.Machine.FSFaultPlan != nil
	before := mach.Stats.Snapshot()
	sim0 := mach.Clock.Now()
	wall0 := time.Now()
	for _, c := range clients {
		wg.Add(1)
		go func(c *Client) {
			defer wg.Done()
			for i := 0; i < r.Ops && !stop.Load(); i++ {
				err := r.Op(c, i)
				if err == nil {
					c.done++
					continue
				}
				c.failed++
				if !tolerate {
					c.err = err
					stop.Store(true)
				}
			}
		}(c)
	}
	wg.Wait()
	res.Wall = time.Since(wall0)
	res.Sim = mach.Clock.Now() - sim0
	res.Stats = Counters{}
	for name, v := range mach.Stats.Snapshot() {
		if d := v - before[name]; d != 0 {
			res.Stats[name] = d
		}
	}
	var err error
	for _, c := range clients {
		res.Ops += c.done
		res.Errors += c.failed
		res.Hist.Merge(c.Hist)
		err = errors.Join(err, c.err)
	}
	return err
}
