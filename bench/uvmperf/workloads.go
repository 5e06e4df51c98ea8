package main

import (
	"encoding/binary"
	"errors"
	"fmt"

	"uvm/internal/param"
	"uvm/internal/sim"
	"uvm/internal/vfs"
	"uvm/internal/vmapi"
)

// errMismatch is the data oracle's verdict: bytes read back differ from
// the bytes the benchmark knows it stored. It fails the request.
var errMismatch = errors.New("uvmperf: data mismatch")

const pg = param.PageSize

// workload is one benchmark workload: a machine size, a request
// generator and the code that sets the machine up and serves a request
// through the public vmapi.Process / vfs.FS API.
type workload struct {
	name string
	why  string
	cfg  vmapi.MachineConfig
	// warmup is the untimed warm-up length in requests per client: a
	// tenth of what a client completes in a default timed phase on the
	// 2-core reference host. It is a fixed count, not a time, so setup_s
	// (which includes it) tracks the program's speed.
	warmup int
	// files and filePages shape the corpus created at setup (0 = none).
	files, filePages int
	gen              func(r *sim.RNG, client int, w *workload) []request
	setup            func(e *env, c *client) error
	do               func(c *client, r *request) error
	// isolated checks, on the per-layer metrics of a run, that the
	// workload bypassed the layers it claims to bypass.
	isolated func(m map[string]float64) error
}

// env is one booted machine and what every client of it shares.
type env struct {
	w     *workload
	sys   vmapi.System
	mach  *vmapi.Machine
	fs    *vfs.FS
	names []string // corpus file names, pre-generated
}

// client is one closed-loop request issuer and the state only it
// touches: its processes, its oracle's expected tags, its tracer.
type client struct {
	e   *env
	id  int
	tr  *tracer // nil in untraced runs
	gen uint32  // oracle tag generation
	// spurious counts oracle copies re-issued after an ErrFault on a
	// valid mapping (see copyRetries).
	spurious int

	proc vmapi.Process // the client's long-lived process
	base param.VAddr   // its region
	exp  []uint64      // expected tag per page of the region (0 = untouched)

	// tenant_mix: the tenants this client owns (index parity) and their
	// expected tags, 8 per tenant; file_write: expected tag per page of
	// each owned file.
	tenants []tenant
	fileExp map[uint16][]uint64
}

type tenant struct {
	proc vmapi.Process
	base param.VAddr
	exp  []uint64
}

// nextTag returns a fresh non-zero tag naming (client, page, generation).
func (c *client) nextTag(page int) uint64 {
	c.gen++
	return uint64(c.id+1)<<56 | uint64(page&0xffffff)<<32 | uint64(c.gen)
}

// fillTag is the tag file page (file, page) is created with.
func fillTag(file, page int) uint64 {
	return 0xf1<<56 | uint64(file)<<16 | uint64(page)
}

// --- the calls the generators make, each a span in traced runs ---------

func (c *client) faults() int64 { return c.e.mach.Stats.Get(sim.CtrFaults) }

// access is one CPU access; in a traced run it is classified as a fault
// or a hit by whether vm.faults moved (the traced run has one client,
// so the delta is this access's).
func (c *client) access(p vmapi.Process, va param.VAddr, write bool) error {
	if c.tr == nil {
		return p.Access(va, write)
	}
	f0, t0 := c.faults(), c.tr.now()
	err := p.Access(va, write)
	c.endAccess(f0, t0)
	return err
}

func (c *client) endAccess(f0, t0 int64) {
	kind := spanAccessHit
	if c.faults() != f0 {
		kind = spanAccessFault
	}
	c.tr.end(kind, t0)
}

// copyRetries bounds how often the oracle re-issues a copy that came
// back ErrFault from an address the benchmark itself mapped with the
// needed protection. The program's copyin/copyout path can lose a race
// with the pagedaemon between its fault and its copy and report a fault
// that is not one (ROADMAP open item 1). The workloads are chosen so
// that no operation fails, so the oracle retries such a copy and counts
// it by name (uvm.spurious_faults_per_kreq) instead of failing the
// request; a fault that persists past the bound is real and fails it.
const copyRetries = 8

// tagIO is one oracle access: 8 bytes at va through the copyin/copyout
// path (ReadBytes or WriteBytes, per write).
func (c *client) tagIO(p vmapi.Process, va param.VAddr, buf []byte, write bool) error {
	for try := 0; ; try++ {
		var f0, t0 int64
		if c.tr != nil {
			f0, t0 = c.faults(), c.tr.now()
		}
		var err error
		if write {
			err = p.WriteBytes(va, buf)
		} else {
			err = p.ReadBytes(va, buf)
		}
		if c.tr != nil {
			c.endAccess(f0, t0)
		}
		if !errors.Is(err, vmapi.ErrFault) || try == copyRetries {
			return err
		}
		c.spurious++
	}
}

func (c *client) readTag(p vmapi.Process, va param.VAddr) (uint64, error) {
	var buf [8]byte
	err := c.tagIO(p, va, buf[:], false)
	return binary.LittleEndian.Uint64(buf[:]), err
}

func (c *client) writeTag(p vmapi.Process, va param.VAddr, tag uint64) error {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], tag)
	return c.tagIO(p, va, buf[:], true)
}

// expectTag reads the tag at va and compares it with want.
func (c *client) expectTag(p vmapi.Process, va param.VAddr, want uint64) error {
	got, err := c.readTag(p, va)
	if err != nil {
		return err
	}
	if got != want {
		return fmt.Errorf("%w: %s va %#x: got %#x want %#x", errMismatch, p.Name(), va, got, want)
	}
	return nil
}

// begin and end bracket a call span; both do nothing in untraced runs.
func (c *client) begin() int64 {
	if c.tr == nil {
		return 0
	}
	return c.tr.now()
}

func (c *client) end(kind int, t0 int64) {
	if c.tr != nil {
		c.tr.end(kind, t0)
	}
}

func (c *client) mmap(p vmapi.Process, pages int, prot param.Prot, flags vmapi.MapFlags, vn *vfs.Vnode) (param.VAddr, error) {
	t0 := c.begin()
	va, err := p.Mmap(0, param.VSize(pages)*pg, prot, flags, vn, 0)
	c.end(spanMmap, t0)
	return va, err
}

func (c *client) munmap(p vmapi.Process, va param.VAddr, pages int) error {
	t0 := c.begin()
	err := p.Munmap(va, param.VSize(pages)*pg)
	c.end(spanMunmap, t0)
	return err
}

func (c *client) msync(p vmapi.Process, va param.VAddr, pages int) error {
	t0 := c.begin()
	err := p.Msync(va, param.VSize(pages)*pg)
	c.end(spanMsync, t0)
	return err
}

func (c *client) fork(p vmapi.Process) (vmapi.Process, error) {
	t0 := c.begin()
	child, err := p.Fork("child")
	c.end(spanFork, t0)
	return child, err
}

func (c *client) exit(p vmapi.Process) {
	t0 := c.begin()
	p.Exit()
	c.end(spanExit, t0)
}

func (c *client) open(file uint16) (*vfs.Vnode, error) {
	t0 := c.begin()
	vn, err := c.e.fs.Open(c.e.names[file])
	c.end(spanOpen, t0)
	return vn, err
}

func (c *client) unref(vn *vfs.Vnode) {
	t0 := c.begin()
	vn.Unref()
	c.end(spanUnref, t0)
}

// --- request bodies shared by several workloads -------------------------

// touch accesses n pages from va, one access per page.
func (c *client) touch(p vmapi.Process, va param.VAddr, n int, write bool) error {
	for i := 0; i < n; i++ {
		if err := c.access(p, va+param.VAddr(i)*pg, write); err != nil {
			return err
		}
	}
	return nil
}

// retag verifies pages [first, first+n) of a region against exp, then
// stores a fresh tag in each and records it.
func (c *client) retag(p vmapi.Process, base param.VAddr, exp []uint64, first, n int) error {
	for i := first; i < first+n; i++ {
		va := base + param.VAddr(i)*pg
		if err := c.expectTag(p, va, exp[i]); err != nil {
			return err
		}
		tag := c.nextTag(i)
		if err := c.writeTag(p, va, tag); err != nil {
			return err
		}
		exp[i] = tag
	}
	return nil
}

// forkCOW is the fork churn request: the child rewrites n pages of the
// parent's dirty region from page first and exits, then the parent
// rewrites them (copy-on-write both ways). The checked variant proves
// the isolation: the child sees the parent's tags, its own stores stay
// its own, and the parent's tags survive the child.
func (c *client) forkCOW(p vmapi.Process, base param.VAddr, exp []uint64, first, n int, check bool) error {
	child, err := c.fork(p)
	if err != nil {
		return err
	}
	va := base + param.VAddr(first)*pg
	if check {
		scratch := append([]uint64(nil), exp...)
		err = c.retag(child, base, scratch, first, n)
	} else {
		err = c.touch(child, va, n, true)
	}
	c.exit(child)
	if err != nil {
		return err
	}
	if check {
		return c.retag(p, base, exp, first, n)
	}
	return c.touch(p, va, n, true)
}

// withFile runs body on a fresh shared mapping of the first pages pages
// of a corpus file: open, mmap, body, munmap, unref — the Figure 2
// serve path. The mapping and the vnode reference are released on every
// path.
func (c *client) withFile(p vmapi.Process, file uint16, pages int, prot param.Prot,
	body func(va param.VAddr) error) error {
	vn, err := c.open(file)
	if err != nil {
		return err
	}
	va, err := c.mmap(p, pages, prot, vmapi.MapShared, vn)
	if err == nil {
		err = body(va)
		if uerr := c.munmap(p, va, pages); err == nil {
			err = uerr
		}
	}
	c.unref(vn)
	return err
}

// expectFill verifies pages [first, first+n) of a mapped corpus file
// against the bytes the file was created with.
func (c *client) expectFill(p vmapi.Process, va param.VAddr, file uint16, first, n int) error {
	for i := first; i < first+n; i++ {
		if err := c.expectTag(p, va+param.VAddr(i)*pg, fillTag(int(file), i)); err != nil {
			return err
		}
	}
	return nil
}

// newRegion gives the client a long-lived process with a pages-page
// anonymous region, written once so every page is resident and dirty.
func (c *client) newRegion(pages int) error {
	p, err := c.e.sys.NewProcess(fmt.Sprintf("client%d", c.id))
	if err != nil {
		return err
	}
	c.proc = p
	c.base, err = p.Mmap(0, param.VSize(pages)*pg, param.ProtRW, vmapi.MapAnon|vmapi.MapPrivate, nil, 0)
	if err != nil {
		return err
	}
	c.exp = make([]uint64, pages)
	return p.TouchRange(c.base, param.VSize(pages)*pg, true)
}

// createCorpus creates the workload's files, each page tagged with
// fillTag so any page of any file can be verified from its address.
func (e *env) createCorpus() error {
	for f, name := range e.names {
		f := f
		err := e.fs.Create(name, e.w.filePages*pg, func(idx int, buf []byte) {
			binary.LittleEndian.PutUint64(buf, fillTag(f, idx))
		})
		if err != nil {
			return fmt.Errorf("create %s: %w", name, err)
		}
	}
	return nil
}

// --- the five workloads -------------------------------------------------

const (
	anonRegionPages = 64   // anon_fault: long-lived dirty region per client
	anonMapPages    = 32   // anon_fault: pages per mmap request
	anonForkPages   = 16   // anon_fault: pages the child (then parent) rewrites
	anonForkEvery   = 8    // anon_fault: every 8th request forks
	thrashPages     = 2048 // swap_thrash: region per client (2 clients = 2x RAM)
	runPages        = 4    // swap_thrash: pages per run, 4 runs per request
	tenants         = 1024 // tenant_mix
	tenantPages     = 8
	mixTouch        = 4  // tenant_mix: pages per request
	mixChurnEvery   = 64 // tenant_mix: every 64th request is fork churn
	numClients      = 2
)

// machine returns a machine config of the given RAM and vnode table on
// the default (hdd97) profile.
func machine(ramPages, maxVnodes int) vmapi.MachineConfig {
	cfg := vmapi.DefaultConfig()
	cfg.RAMPages = ramPages
	cfg.MaxVnodes = maxVnodes
	return cfg
}

var workloads = []*workload{
	{
		name: "anon_fault",
		why: "anonymous zero-fill and COW faults with no memory pressure: only uvm map/amap/fault, " +
			"phys.Alloc and pmap run; disk, swap, vfs and the pagedaemon are bypassed",
		cfg:    machine(65536, 2000),
		warmup: 10000,
		gen: func(r *sim.RNG, client int, w *workload) []request {
			st := make([]request, streamLen)
			for i := range st {
				st[i].Check = i%oracleEvery == oracleEvery-1 || i%oracleEvery == 3
				if i%anonForkEvery == anonForkEvery-1 {
					st[i].Kind = kForkCOW
					st[i].Off[0] = uint16(r.Intn(anonRegionPages - anonForkPages + 1))
				}
			}
			return st
		},
		setup: func(e *env, c *client) error { return c.newRegion(anonRegionPages) },
		do: func(c *client, r *request) error {
			if r.Kind == kForkCOW {
				return c.forkCOW(c.proc, c.base, c.exp, int(r.Off[0]), anonForkPages, r.Check)
			}
			va, err := c.mmap(c.proc, anonMapPages, param.ProtRW, vmapi.MapAnon|vmapi.MapPrivate, nil)
			if err != nil {
				return err
			}
			if r.Check {
				// Zero-fill must really be zero, then hold what is stored.
				err = c.retag(c.proc, va, make([]uint64, anonMapPages), 0, anonMapPages)
			} else {
				err = c.touch(c.proc, va, anonMapPages, true)
			}
			if uerr := c.munmap(c.proc, va, anonMapPages); err == nil {
				err = uerr
			}
			return err
		},
		isolated: func(m map[string]float64) error {
			return wantZero(m, "disk.reads_per_kreq", "disk.writes_per_kreq", "uvm.pageouts_per_kreq")
		},
	},
	{
		name: "file_serve",
		why: "the Figure 2 serve path over a Zipf corpus twice RAM: vfs open/recycle, map insert/remove, " +
			"vnode-object lookup, lookahead and clean-page reclaim; no amap/anon work, no writeback",
		cfg:    machine(8192, 1024),
		warmup: 45000,
		files:  2048, filePages: 8,
		gen: func(r *sim.RNG, client int, w *workload) []request {
			z := newZipf(w.files, 1)
			st := make([]request, streamLen)
			for i := range st {
				st[i] = request{Kind: kServe, Check: i%oracleEvery == oracleEvery-1, File: uint16(z.sample(r))}
			}
			return st
		},
		setup: func(e *env, c *client) error {
			var err error
			c.proc, err = e.sys.NewProcess(fmt.Sprintf("client%d", c.id))
			return err
		},
		do: func(c *client, r *request) error {
			n := c.e.w.filePages
			return c.withFile(c.proc, r.File, n, param.ProtRead, func(va param.VAddr) error {
				if r.Check {
					return c.expectFill(c.proc, va, r.File, 0, n)
				}
				return c.touch(c.proc, va, n, false)
			})
		},
		isolated: func(m map[string]float64) error {
			if err := wantZero(m, "uvm.pageouts_per_kreq", "disk.writes_per_kreq", "uvm.anon_pageins_per_kreq"); err != nil {
				return err
			}
			return wantPositive(m, "disk.reads_per_kreq")
		},
	},
	{
		name: "file_write",
		why: "the same vfs/object/pmap layers as file_serve, used for writes: shared-mapping stores and Msync " +
			"push the object writeback path and disk writes; the corpus fits in RAM, so no reclaim and no swap",
		cfg:    machine(8192, 1024),
		warmup: 22000,
		files:  256, filePages: 16,
		gen: func(r *sim.RNG, client int, w *workload) []request {
			st := make([]request, streamLen)
			for i := range st {
				// Each client writes only files of its own parity, so the
				// oracle's expected tags have a single writer.
				f := 2*r.Intn(w.files/numClients) + client
				st[i] = request{Kind: kFileWrite, Check: i%oracleEvery == oracleEvery-1, File: uint16(f)}
			}
			return st
		},
		setup: func(e *env, c *client) error {
			var err error
			c.proc, err = e.sys.NewProcess(fmt.Sprintf("client%d", c.id))
			c.fileExp = make(map[uint16][]uint64)
			return err
		},
		do: func(c *client, r *request) error {
			n := c.e.w.filePages
			return c.withFile(c.proc, r.File, n, param.ProtRW, func(va param.VAddr) error {
				var err error
				if r.Check {
					err = c.retag(c.proc, va, c.fileTags(r.File), 0, n)
				} else {
					err = c.touch(c.proc, va, n, true)
				}
				if err != nil {
					return err
				}
				return c.msync(c.proc, va, n)
			})
		},
		isolated: func(m map[string]float64) error {
			if err := wantZero(m, "swap.ios_per_kreq", "uvm.anon_pageins_per_kreq"); err != nil {
				return err
			}
			return wantPositive(m, "uvm.pageouts_per_kreq")
		},
	},
	{
		name: "swap_thrash",
		why: "anonymous demand twice RAM at uniformly random offsets: every allocation rides on reclaim (pagedaemon " +
			"scan, swap alloc, cluster pageout, anon pagein) while the map layer is static and vfs is bypassed",
		cfg:    machine(2048, 2000),
		warmup: 15000,
		gen: func(r *sim.RNG, client int, w *workload) []request {
			st := make([]request, streamLen)
			for i := range st {
				st[i] = request{Kind: kRuns, Check: i%oracleEvery == oracleEvery-1}
				for j := range st[i].Off {
					st[i].Off[j] = uint16(r.Intn(thrashPages - runPages + 1))
				}
			}
			return st
		},
		setup: func(e *env, c *client) error { return c.newRegion(thrashPages) },
		do: func(c *client, r *request) error {
			for j, off := range r.Off {
				first, write := int(off), j%2 == 0
				va := c.base + param.VAddr(first)*pg
				var err error
				switch {
				case !r.Check:
					err = c.touch(c.proc, va, runPages, write)
				case write:
					err = c.retag(c.proc, c.base, c.exp, first, runPages)
				default:
					for i := first; i < first+runPages && err == nil; i++ {
						err = c.expectTag(c.proc, c.base+param.VAddr(i)*pg, c.exp[i])
					}
				}
				if err != nil {
					return err
				}
			}
			return nil
		},
		isolated: func(m map[string]float64) error {
			if err := wantZero(m, "vfs.open.calls_per_kreq"); err != nil {
				return err
			}
			return wantPositive(m, "uvm.pageouts_per_kreq", "swap.ios_per_kreq")
		},
	},
	{
		name: "tenant_mix",
		why: "1024 tenant processes mix Zipf file serves, shared-file writes, anon dirtying and fork churn on a small " +
			"machine: file and anon pressure share one pagedaemon, so cost moved between layers shows",
		cfg:    machine(4096, 512),
		warmup: 40000,
		files:  2048, filePages: 8,
		gen: func(r *sim.RNG, client int, w *workload) []request {
			z := newZipf(w.files, 1)
			st := make([]request, streamLen)
			for i := range st {
				q := &st[i]
				q.Check = i%oracleEvery == oracleEvery-1
				// Clients own tenants by parity and walk their own in turn.
				q.Tenant = uint16(numClients*(i%(tenants/numClients)) + client)
				mix := r.Intn(100)
				switch {
				case i%mixChurnEvery == mixChurnEvery-1:
					q.Kind = kForkCOW
					q.Off[0] = uint16(r.Intn(tenantPages - mixTouch + 1))
				case mix < 70:
					q.Kind, q.File = kServe, uint16(z.sample(r))
					q.Off[0] = uint16(r.Intn(w.filePages - mixTouch + 1))
				case mix < 80:
					q.Kind, q.File = kFileWrite, uint16(z.sample(r))
					q.Off[0] = uint16(r.Intn(w.filePages - mixTouch + 1))
				default:
					q.Kind = kAnonDirty
					q.Off[0] = uint16(r.Intn(tenantPages - mixTouch + 1))
				}
			}
			return st
		},
		setup: func(e *env, c *client) error {
			for i := c.id; i < tenants; i += numClients {
				p, err := e.sys.NewProcess(fmt.Sprintf("tenant%04d", i))
				if err != nil {
					return err
				}
				va, err := p.Mmap(0, tenantPages*pg, param.ProtRW, vmapi.MapAnon|vmapi.MapPrivate, nil, 0)
				if err != nil {
					return err
				}
				c.tenants = append(c.tenants, tenant{p, va, make([]uint64, tenantPages)})
			}
			return nil
		},
		do: func(c *client, r *request) error {
			tn := &c.tenants[int(r.Tenant)/numClients]
			first := int(r.Off[0])
			switch r.Kind {
			case kForkCOW:
				return c.forkCOW(tn.proc, tn.base, tn.exp, first, mixTouch, r.Check)
			case kAnonDirty:
				if r.Check {
					return c.retag(tn.proc, tn.base, tn.exp, first, mixTouch)
				}
				return c.touch(tn.proc, tn.base+param.VAddr(first)*pg, mixTouch, true)
			case kServe:
				return c.withFile(tn.proc, r.File, c.e.w.filePages, param.ProtRead, func(va param.VAddr) error {
					if r.Check {
						return c.expectFill(tn.proc, va, r.File, first, mixTouch)
					}
					return c.touch(tn.proc, va+param.VAddr(first)*pg, mixTouch, false)
				})
			default: // kFileWrite
				n := c.e.w.filePages
				return c.withFile(tn.proc, r.File, n, param.ProtRW, func(va param.VAddr) error {
					var err error
					if r.Check {
						// Both clients may write one file, so the checked
						// store rewrites the fill bytes: a real store that
						// leaves the oracle's expectation single-valued.
						for i := first; i < first+mixTouch && err == nil; i++ {
							err = c.writeTag(tn.proc, va+param.VAddr(i)*pg, fillTag(int(r.File), i))
						}
					} else {
						err = c.touch(tn.proc, va+param.VAddr(first)*pg, mixTouch, true)
					}
					if err != nil {
						return err
					}
					return c.msync(tn.proc, va, n)
				})
			}
		},
	},
}

// fileTags returns the expected tags of an owned file_write file,
// starting from the bytes the file was created with.
func (c *client) fileTags(file uint16) []uint64 {
	exp := c.fileExp[file]
	if exp == nil {
		exp = make([]uint64, c.e.w.filePages)
		for i := range exp {
			exp[i] = fillTag(int(file), i)
		}
		c.fileExp[file] = exp
	}
	return exp
}

func wantZero(m map[string]float64, names ...string) error {
	for _, n := range names {
		if m[n] != 0 {
			return fmt.Errorf("layer isolation: %s = %g, want 0", n, m[n])
		}
	}
	return nil
}

func wantPositive(m map[string]float64, names ...string) error {
	for _, n := range names {
		if !(m[n] > 0) {
			return fmt.Errorf("layer isolation: %s = %g, want > 0", n, m[n])
		}
	}
	return nil
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}
