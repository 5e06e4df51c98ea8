package workload

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"uvm/internal/disk"
	"uvm/internal/param"
	"uvm/internal/uvm"
	"uvm/internal/vmapi"
)

// stubSys is a vmapi.System over a real machine (the sweep reads the
// machine's frames) that only counts what the driver does to it. The
// embedded interface is nil: a method the driver has no business calling
// panics.
type stubSys struct {
	vmapi.System
	mach      *vmapi.Machine
	mu        sync.Mutex
	procs     []*stubProc
	shutdowns int
}

func (s *stubSys) Machine() *vmapi.Machine { return s.mach }
func (s *stubSys) Shutdown()               { s.shutdowns++ }
func (s *stubSys) NewProcess(name string) (vmapi.Process, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	p := &stubProc{name: name}
	s.procs = append(s.procs, p)
	return p, nil
}

// stubProc's accesses fail when its access hook says so.
type stubProc struct {
	vmapi.Process
	name   string
	exited bool
	access func() error
}

func (p *stubProc) Exit()        { p.exited = true }
func (p *stubProc) Exited() bool { return p.exited }
func (p *stubProc) Access(param.VAddr, bool) error {
	if p.access != nil {
		return p.access()
	}
	return nil
}

// TestDriveTable pins the measured run's contract cell by cell: clients
// {1, 4} x outcome {clean run, set-up fails at a middle client, a request
// fails and ends the run, requests fail and are counted, a Busy page is
// left behind, a request fails AND strands a Busy page}. Every cell
// asserts the requests and errors counted, the histogram's sample count,
// that every process created was exited, that Shutdown ran exactly once
// and what the Busy sweep reported.
//
// Mutation-checked: with the teardown skipped after a failed set-up the
// setup-fails cells fail (processes left alive, no Shutdown); with the
// sweep skipped when the run already has an error — what ReclaimBWRunOn,
// ObjWBRunOn and TrafficRunOn did before the driver — the fatal+busy
// cells fail.
func TestDriveTable(t *testing.T) {
	const ops, failAt = 12, 3
	errSetup, errOp := errors.New("set-up failed"), errors.New("request failed")
	for _, clients := range []int{1, 4} {
		for _, outcome := range []string{"clean", "setup-fails", "fatal", "tolerated", "busy", "fatal+busy"} {
			t.Run(fmt.Sprintf("%dc/%s", clients, outcome), func(t *testing.T) {
				var sys *stubSys
				procs := make([]*stubProc, clients)
				last, mid := clients-1, clients/2
				fatal := outcome == "fatal" || outcome == "fatal+busy"
				mcfg := vmapi.MachineConfig{RAMPages: 64, SwapPages: 64, FSPages: 64, MaxVnodes: 4}
				if outcome == "tolerated" {
					// A fault plan on the machine (an empty one will do) is
					// what says failed requests are expected.
					mcfg.SwapFaultPlan = disk.NewFaultPlan()
				}
				res, err := Drive(Run{
					Machine: mcfg,
					Boot:    func(m *vmapi.Machine) vmapi.System { sys = &stubSys{mach: m}; return sys },
					Clients: clients,
					Ops:     ops,
					Setup: func(c *Client) error {
						p, err := c.NewProcess(fmt.Sprintf("p%d", c.ID))
						procs[c.ID] = p.(*stubProc)
						if outcome == "setup-fails" && c.ID == mid {
							return errSetup
						}
						return err
					},
					Op: func(c *Client, i int) error {
						p := procs[c.ID]
						p.access = nil
						switch {
						case outcome == "tolerated" && i%4 == failAt,
							fatal && c.ID == last && i == failAt:
							p.access = func() error { return errOp }
						}
						if (outcome == "busy" || outcome == "fatal+busy") && c.ID == last && i == failAt {
							pg, err := sys.mach.Mem.Alloc(nil, 0, false)
							if err != nil {
								return err
							}
							pg.Busy.Store(true) // a claim nobody gives back
						}
						return c.Access(p, 0, true)
					},
				})

				wantOps, wantErrs := int64(clients*ops), int64(0)
				switch outcome {
				case "setup-fails":
					wantOps = 0
				case "tolerated":
					wantErrs = int64(clients * ops / 4)
					wantOps -= wantErrs
				case "fatal", "fatal+busy":
					wantErrs = 1
				}
				if fatal {
					// The failing client completed failAt requests; the
					// others stop at their next request, wherever that is.
					if res.Ops < failAt || res.Ops > int64(last*ops+failAt) {
						t.Errorf("ops = %d, want %d..%d", res.Ops, failAt, last*ops+failAt)
					}
				} else if res.Ops != wantOps {
					t.Errorf("ops = %d, want %d", res.Ops, wantOps)
				}
				if res.Errors != wantErrs {
					t.Errorf("errors = %d, want %d", res.Errors, wantErrs)
				}
				if got := res.Hist.Count(); got != res.Ops+res.Errors {
					t.Errorf("histogram holds %d samples, want one per access = %d", got, res.Ops+res.Errors)
				}
				if (res.Stats == nil) != (outcome == "setup-fails") {
					t.Errorf("Stats = %v: want a delta exactly when set-up succeeded", res.Stats)
				}

				wantProcs := clients
				if outcome == "setup-fails" {
					wantProcs = mid + 1 // set-up stops at the failing client
				}
				if len(sys.procs) != wantProcs {
					t.Errorf("%d processes created, want %d", len(sys.procs), wantProcs)
				}
				for _, p := range sys.procs {
					if !p.exited {
						t.Errorf("process %s still alive after the run", p.name)
					}
				}
				if sys.shutdowns != 1 {
					t.Errorf("Shutdown called %d times, want exactly once", sys.shutdowns)
				}

				var wantErr error
				switch {
				case outcome == "setup-fails":
					wantErr = errSetup
				case fatal:
					wantErr = errOp
				}
				if wantErr != nil && !errors.Is(err, wantErr) {
					t.Errorf("err = %v, want it to carry %v", err, wantErr)
				}
				var leak *LeakError
				if outcome == "busy" || outcome == "fatal+busy" {
					if !errors.As(err, &leak) || leak.Busy != 1 {
						t.Errorf("err = %v, want it to carry a LeakError for the 1 Busy page", err)
					}
				} else if errors.As(err, &leak) {
					t.Errorf("sweep reported %d Busy pages on a run that left none", leak.Busy)
				}
				if wantErr == nil && leak == nil && err != nil {
					t.Errorf("unexpected error: %v", err)
				}
			})
		}
	}
}

// TestDriveSetupFailureReleasesEarlierClients is the set-up cleanup on a
// real system: when set-up fails at client k, the clients before it have
// already created processes and mapped regions. The run must not return
// with them alive (RunTraffic used to: its exit loop was registered
// after the creation loop) — every process exits and the machine's map
// entries are back at the post-boot count.
func TestDriveSetupFailureReleasesEarlierClients(t *testing.T) {
	const k = 2
	errSetup := errors.New("set-up failed")
	var (
		sys      vmapi.System
		postBoot int
		procs    []vmapi.Process
	)
	_, err := Drive(Run{
		Machine: vmapi.MachineConfig{RAMPages: 256, SwapPages: 1024, FSPages: 64, MaxVnodes: 4},
		Boot:    uvm.Boot,
		Clients: 4,
		Ops:     1,
		Setup: func(c *Client) error {
			if c.ID == 0 {
				sys, postBoot = c.Sys, c.Sys.TotalMapEntries()
			}
			p, err := c.NewProcess(fmt.Sprintf("p%d", c.ID))
			if err != nil {
				return err
			}
			procs = append(procs, p)
			va, err := p.Mmap(0, 8*param.PageSize, param.ProtRW, vmapi.MapAnon|vmapi.MapPrivate, nil, 0)
			if err != nil {
				return err
			}
			if c.ID == k {
				return errSetup
			}
			return p.Access(va, true) // the earlier clients hold anon memory too
		},
		Op: func(*Client, int) error { return errors.New("a request ran after a failed set-up") },
	})
	if !errors.Is(err, errSetup) {
		t.Fatalf("err = %v, want the set-up error", err)
	}
	if len(procs) != k+1 {
		t.Fatalf("%d processes created, want %d (set-up stops at the failing client)", len(procs), k+1)
	}
	for _, p := range procs {
		if !p.Exited() {
			t.Errorf("process %s still alive after the failed run", p.Name())
		}
	}
	if got := sys.TotalMapEntries(); got != postBoot {
		t.Errorf("TotalMapEntries = %d after the failed run, want the post-boot %d", got, postBoot)
	}
}
