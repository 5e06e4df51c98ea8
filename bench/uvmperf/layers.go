package main

import (
	"fmt"
	"os"
	"runtime"
	"slices"
	"time"

	"uvm/internal/disk"
	"uvm/internal/histogram"
	"uvm/internal/param"
	"uvm/internal/phys"
	"uvm/internal/sim"
	"uvm/internal/uvm"
	"uvm/internal/vmapi"
)

// The per-layer run splits its time budget (-seconds) over its phases
// by these shares; the unit-cost micro-timings take options.unitBudget each
// on top. With -requests the same shares scale the request count.
const (
	shareCounts = 0.30 // untraced, 2 clients: the counter deltas
	shareBase   = 0.15 // untraced, 1 client: the base of trace_overhead_ratio
	shareTraced = 0.25 // traced, 1 client: the spans
	shareRef    = 0.075
)

// perLayer is the traced run: every per-layer metric of one workload.
func perLayer(w *workload, o options) (*record, error) {
	rec := newRecord(w, o)
	names := corpusNames(w)
	streams := genStreams(w, o.seed, numClients)
	rec.StreamHash = streamHash(streams, names)
	var firstErr error
	note := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	// part runs one phase of the budget on a fresh machine.
	part := func(v variant, nclients int, share float64, warmup int, traced bool) (*run, *phase, error) {
		r, warm, err := startRun(w, v, streams[:nclients], names, warmup, traced)
		if err != nil {
			return r, nil, err
		}
		if v.name == defaultVariant.name {
			rec.count(warm)
		}
		runtime.GC()
		ph := r.drive(int(float64(o.requests)*share), time.Duration(float64(o.dur)*share))
		return r, ph, nil
	}

	// Counts: Stats deltas over a two-client untraced timed phase.
	r, ph, err := part(defaultVariant, numClients, shareCounts, o.warmup(w), false)
	if err != nil {
		return rec, err
	}
	rec.count(ph)
	slotsEnd := r.e.mach.Swap.SlotsInUse()
	note(r.finish())
	for _, m := range countMetrics(ph, r.e.mach.Costs, slotsEnd) {
		rec.set(m.name, m.value, m.unit)
	}

	// Spans: one client, untraced then traced on the same stream.
	r, base, err := part(defaultVariant, 1, shareBase, o.warmup(w), false)
	if err != nil {
		return rec, err
	}
	rec.count(base)
	note(r.finish())
	r, traced, err := part(defaultVariant, 1, shareTraced, o.warmup(w), true)
	if err != nil {
		return rec, err
	}
	rec.count(traced)
	note(r.finish())
	tr := r.clients[0].tr
	// The traced phase's own counts, for the estimates below: the same
	// requests the spans timed.
	counts := map[string]float64{}
	for _, m := range countMetrics(traced, r.e.mach.Costs, 0) {
		counts[m.name] = m.value
	}
	note(tr.writeTrace(o.outDir, w.name, o.seed))
	kreq := float64(tr.requests) / 1000
	uvmSpanNs := 0.0 // traced time inside uvm.* spans, per 1000 requests
	for k := 0; k < numCallSpans; k++ {
		a := &tr.agg[k]
		n := float64(a.hist.Count())
		mean := 0.0
		if n > 0 {
			mean = float64(a.sumNs) / n
		}
		rec.set(spanNames[k]+".calls_per_kreq", n/kreq, "count")
		rec.set(spanNames[k]+".ns_mean", mean, "ns")
		rec.set(spanNames[k]+".ns_p99", float64(a.hist.Quantile(0.99)), "ns")
		if k != spanOpen && k != spanUnref {
			uvmSpanNs += float64(a.sumNs) / kreq
		}
	}
	rec.set("workload.self_ns_per_req", float64(tr.selfNs)/float64(tr.requests), "ns")
	rec.set("workload.trace_overhead_ratio", rate(base)/rate(traced), "ratio")
	slices.Sort(traced.lat)
	rec.set("tail.req_us_p999", float64(quantile(traced.lat, 0.999))/1e3, "us")

	// Unit costs, and what the counts say each lower layer cost.
	unit := unitCosts(rec, w, o.unitBudget)
	// The estimates are count x unit cost, as shares of the traced uvm.*
	// span time. swap and vfs include the disk time beneath them, so
	// disk.est_share is shown beside them, not subtracted again; work
	// the pagedaemon did off the client's path is in the counts but not
	// in the spans, so under reclaim the shares can sum past 1.
	faults := counts["uvm.faults_per_kreq"]
	swapReads := min(counts["uvm.anon_pageins_per_kreq"], counts["swap.ios_per_kreq"])
	swapWrites := counts["swap.ios_per_kreq"] - swapReads
	pagesRead := counts["disk.reads_per_kreq"] * counts["disk.pages_per_read"]
	pagesWritten := counts["disk.writes_per_kreq"] * counts["disk.pages_per_write"]
	swapPagesWritten := swapWrites * counts["uvm.pageout_pages_per_cluster"]
	est := map[string]float64{
		"phys": counts["phys.allocs_per_kreq"]*unit["phys.alloc_free_ns_op"] +
			counts["phys.zeroed_per_kreq"]*max(0, unit["phys.alloc_zero_ns_op"]-unit["phys.alloc_free_ns_op"]) +
			faults*unit["phys.activate_ns_op"],
		"pmap": counts["pmap.pv_acquires_per_kreq"] * (unit["pmap.enter_ns_op"] + unit["pmap.remove_ns_op"]) / 2,
		"swap": swapReads*unit["swap.read_slot_ns_op"] + swapPagesWritten*unit["swap.write_cluster16_ns_op"]/16 +
			swapPagesWritten*unit["swap.alloc_free_ns_op"],
		"vfs": max(0, pagesRead-swapReads)*unit["vfs.readpages8_ns_op"]/8 +
			max(0, pagesWritten-swapPagesWritten)*unit["vfs.writepage_ns_op"],
		"disk": pagesRead*unit["disk.read8_ns_op"]/8 + pagesWritten*unit["disk.write8_ns_op"]/8,
	}
	rest := uvmSpanNs
	for _, layer := range []string{"phys", "pmap", "swap", "vfs", "disk"} {
		share := 0.0
		if uvmSpanNs > 0 {
			share = est[layer] / uvmSpanNs
		}
		rec.set(layer+".est_share", share, "ratio")
		if layer != "disk" {
			rest -= est[layer]
		}
	}
	residual := 0.0
	if faults > 0 {
		residual = rest / faults
	}
	rec.set("uvm.residual_ns_per_fault", residual, "ns")

	// Reference rows: quarter-length, never gating, failures tolerated.
	for _, v := range refVariants {
		r, ph, err := part(v, numClients, shareRef, o.warmup(w)/4, false)
		if err != nil {
			fmt.Fprintf(os.Stderr, "uvmperf: ref.%s on %s: %v\n", v.name, w.name, err)
			ph = &phase{attempted: 1, wall: time.Second}
		}
		if ferr := r.finish(); ferr != nil && v.name != "bsdvm" {
			fmt.Fprintf(os.Stderr, "uvmperf: ref.%s on %s: %v\n", v.name, w.name, ferr)
		}
		if ph.failed > 0 {
			fmt.Fprintf(os.Stderr, "uvmperf: ref.%s on %s: %d of %d requests failed, first: %v\n",
				v.name, w.name, ph.failed, ph.attempted, ph.firstErr)
		}
		rec.set("ref."+v.name+".req_per_s", rate(ph), "1/s")
		if v.name == "bsdvm" || v.name == "async_io" {
			rec.set("ref."+v.name+".sim_ms_per_req", ph.sim.Seconds()*1e3/float64(ph.attempted), "ms")
		}
		if v.name == "bsdvm" {
			slices.Sort(ph.lat)
			rec.set("ref.bsdvm.req_us_p50", float64(quantile(ph.lat, 0.50))/1e3, "us")
			rec.set("ref.bsdvm.req_us_p99", float64(quantile(ph.lat, 0.99))/1e3, "us")
		}
	}

	if w.isolated != nil {
		vals := make(map[string]float64, len(rec.Metrics))
		for k, m := range rec.Metrics {
			vals[k] = m.Value
		}
		note(w.isolated(vals))
	}
	return rec, firstErr
}

// rate is a phase's completed requests per wall second.
func rate(ph *phase) float64 {
	return float64(ph.attempted-ph.failed) / ph.wall.Seconds()
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// namedMetric is a metric with its name, in reporting order.
type namedMetric struct {
	name  string
	value float64
	unit  string
}

// countMetrics turns a timed phase's Stats delta into the count rows
// (per 1000 requests unless the name says otherwise).
func countMetrics(ph *phase, costs *sim.Costs, slotsEnd int) []namedMetric {
	c := ph.counters
	kreq := float64(ph.attempted) / 1000
	var out []namedMetric
	set := func(name string, v float64, unit string) {
		out = append(out, namedMetric{name, v, unit})
	}
	perKreq := func(name, counter string) { set(name, float64(c[counter])/kreq, "count") }

	perKreq("uvm.faults_per_kreq", sim.CtrFaults)
	set("uvm.spurious_faults_per_kreq", float64(ph.spurious)/kreq, "count")
	perKreq("uvm.cow_copies_per_kreq", "uvm.cow.copies")
	perKreq("uvm.lookahead_mapped_per_kreq", "uvm.lookahead.mapped")
	perKreq("uvm.mapentry_allocs_per_kreq", "uvm.mapentry.alloc")
	perKreq("uvm.anon_pageins_per_kreq", "uvm.anon.pagein")
	perKreq("uvm.pageouts_per_kreq", sim.CtrPageOuts)
	set("uvm.pageout_pages_per_s", float64(c[sim.CtrPageOuts])/ph.wall.Seconds(), "1/s")
	set("uvm.pageout_pages_per_cluster", ratio(c[sim.CtrPageOuts], c[sim.CtrPdClusters]), "count")
	set("uvm.refault_ratio", ratio(c["uvm.anon.pagein"], c[sim.CtrPageOuts]), "ratio")
	perKreq("uvm.pdaemon.rounds_per_kreq", sim.CtrPdRounds)
	set("uvm.pdaemon.freed_per_round", ratio(c[sim.CtrPdFreed], c[sim.CtrPdRounds]), "count")
	perKreq("uvm.pdaemon.blocked_per_kreq", sim.CtrPdBlocked)
	perKreq("uvm.pdaemon.direct_per_kreq", sim.CtrPdDirect)
	set("uvm.pdaemon.wait_sim_us_per_kreq", float64(c[sim.CtrPdWaitNs])/1e3/kreq, "us")
	perKreq("uvm.objwb.pages_per_kreq", sim.CtrObjWbPages)
	perKreq("uvm.objwb.waits_per_kreq", sim.CtrObjWbWaits)
	perKreq("vfs.recycles_per_kreq", "vfs.recycles")
	perKreq("phys.allocs_per_kreq", sim.CtrAllocAcquires)
	perKreq("phys.zeroed_per_kreq", sim.CtrPagesZeroed)
	perKreq("phys.copied_per_kreq", sim.CtrPagesCopied)
	set("phys.alloc_contended_ratio", ratio(c[sim.CtrAllocContended], c[sim.CtrAllocAcquires]), "ratio")
	perKreq("pmap.pv_acquires_per_kreq", sim.CtrPVAcquires)
	set("pmap.pv_contended_ratio", ratio(c[sim.CtrPVContended], c[sim.CtrPVAcquires]), "ratio")
	set("pmap.batch_pages_per_enter", ratio(c[sim.CtrPVBatchPages], c[sim.CtrPVBatches]), "count")
	perKreq("swap.ios_per_kreq", sim.CtrSwapIOs)
	set("swap.slots_live_end", float64(slotsEnd), "count")
	perKreq("disk.reads_per_kreq", sim.CtrDiskReads)
	perKreq("disk.writes_per_kreq", sim.CtrDiskWrites)
	set("disk.pages_per_read", ratio(c[sim.CtrDiskPagesRead], c[sim.CtrDiskReads]), "count")
	set("disk.pages_per_write", ratio(c[sim.CtrDiskPagesWrite], c[sim.CtrDiskWrites]), "count")
	perKreq("disk.seeks_per_kreq", sim.CtrDiskSeeks)
	// Simulated device-busy time, rebuilt from the disk's cost model
	// (command + seek + transfer) plus the deferred-I/O ledger.
	busy := time.Duration(c[sim.CtrDiskReads]+c[sim.CtrDiskWrites])*costs.DiskOp +
		time.Duration(c[sim.CtrDiskSeeks])*costs.DiskSeek +
		time.Duration(c[sim.CtrDiskPagesRead]+c[sim.CtrDiskPagesWrite])*costs.DiskPageIO +
		time.Duration(c[sim.CtrDiskDeferredNs])
	set("disk.sim_busy_share", ratio(int64(busy), int64(ph.sim)), "ratio")
	return out
}

// timeCalls calls op in batches until budget has passed and returns
// the mean host nanoseconds per call.
func timeCalls(budget time.Duration, op func()) float64 {
	const batch = 64
	n := 0
	start := time.Now()
	for {
		for i := 0; i < batch; i++ {
			op()
		}
		n += batch
		if el := time.Since(start); el >= budget {
			return float64(el) / float64(n)
		}
	}
}

// unitCosts micro-times each lower layer's public functions on a bare
// machine of the workload's size (no VM system booted, so nothing else
// touches the layers), sets the rows on rec and returns them by name.
// Host nanoseconds per call, except the two boot rows.
func unitCosts(rec *record, w *workload, budget time.Duration) map[string]float64 {
	timeOp := func(op func()) float64 { return timeCalls(budget, op) }
	out := map[string]float64{}
	set := func(name string, v float64) {
		out[name] = v
		rec.set(name, v, "ns")
	}
	t0 := time.Now()
	m := vmapi.NewMachine(w.cfg)
	rec.set("vmapi.newmachine_ms", float64(time.Since(t0))/1e6, "ms")
	t0 = time.Now()
	sys := uvm.Boot(vmapi.NewMachine(w.cfg))
	rec.set("vmapi.boot_ms", float64(time.Since(t0))/1e6, "ms")
	sys.Shutdown()

	owner := new(int)
	mustPage := func(zero bool) *phys.Page {
		p, err := m.Mem.Alloc(owner, 0, zero)
		if err != nil {
			panic(err) // a bare machine of any workload's size has free frames
		}
		return p
	}
	set("phys.alloc_free_ns_op", timeOp(func() { m.Mem.Free(mustPage(false)) }))
	set("phys.alloc_zero_ns_op", timeOp(func() { m.Mem.Free(mustPage(true)) }))
	page := mustPage(false)
	set("phys.activate_ns_op", timeOp(func() { m.Mem.Activate(page) }))
	inactive := make([]*phys.Page, 256)
	for i := range inactive {
		inactive[i] = mustPage(false)
		m.Mem.Deactivate(inactive[i])
	}
	set("phys.scan_inactive_ns_page", timeOp(func() {
		m.Mem.ScanInactive(len(inactive), func(*phys.Page) bool { return true })
	})/float64(len(inactive)))

	// Enter and Remove are timed in alternating rounds over fresh
	// addresses, so every Enter adds a pv entry and every Remove finds one.
	pm := m.MMU.NewPmap("unit")
	const round = 1024
	at := func(i int) param.VAddr { return param.MmapHintBase + param.VAddr(i)*pg }
	var enterNs, removeNs time.Duration
	rounds := 0
	for enterNs+removeNs < 2*budget {
		t0 := time.Now()
		for i := 0; i < round; i++ {
			pm.Enter(at(i), inactive[i%len(inactive)], param.ProtRW, false)
		}
		t1 := time.Now()
		for i := 0; i < round; i++ {
			pm.Remove(at(i), at(i+1))
		}
		enterNs += t1.Sub(t0)
		removeNs += time.Since(t1)
		rounds++
	}
	set("pmap.enter_ns_op", float64(enterNs)/float64(rounds*round))
	set("pmap.remove_ns_op", float64(removeNs)/float64(rounds*round))
	pm.Enter(at(0), page, param.ProtRW, false)
	set("pmap.lookup_ns_op", timeOp(func() { pm.Lookup(at(0)) }))
	set("pmap.page_protect_ns_op", timeOp(func() { m.MMU.PageProtect(page, param.ProtRead) }))
	pm.RemoveAll()

	set("swap.alloc_free_ns_op", timeOp(func() {
		if s, err := m.Swap.Alloc(); err == nil {
			m.Swap.Free(s)
		}
	}))
	set("swap.alloc_contig16_ns_op", timeOp(func() {
		if s, err := m.Swap.AllocContig(16); err == nil {
			m.Swap.FreeRange(s, 16)
		}
	}))
	bufs := make([][]byte, 16)
	for i := range bufs {
		bufs[i] = make([]byte, pg)
	}
	slot, err := m.Swap.AllocContig(16)
	if err != nil {
		panic(err) // the swap partition is empty
	}
	set("swap.write_cluster16_ns_op", timeOp(func() { _ = m.Swap.WriteCluster(slot, bufs) }))
	set("swap.read_slot_ns_op", timeOp(func() { _ = m.Swap.ReadSlot(slot, bufs[0]) }))
	m.Swap.FreeRange(slot, 16)

	blk, err := m.FSDisk.Alloc(8)
	if err != nil {
		panic(err) // the filesystem disk is empty
	}
	set("disk.write8_ns_op", timeOp(func() { _ = m.FSDisk.WritePages(blk, bufs[:8]) }))
	set("disk.read8_ns_op", timeOp(func() { _ = m.FSDisk.ReadPages(blk, bufs[:8]) }))
	aw := disk.NewAsyncWriter(m.FSDisk, 0)
	set("disk.aio_submit_ns_op", timeOp(func() { aw.Submit(blk, bufs[:8], func(error) {}) }))
	aw.Drain()

	if err := m.FS.Create("/unit", 8*pg, nil); err != nil {
		panic(err) // fresh filesystem, fresh name
	}
	vn, err := m.FS.Open("/unit")
	if err != nil {
		panic(err)
	}
	set("vfs.readpages8_ns_op", timeOp(func() { _ = vn.ReadPages(0, bufs[:8]) }))
	set("vfs.writepage_ns_op", timeOp(func() { _ = vn.WritePage(0, bufs[0]) }))
	vn.Unref()

	ctr := m.Stats.Counter("uvmperf.unit")
	h := histogram.New()
	set("sim.stats_add_ns_op", timeOp(func() { m.Stats.Add("uvmperf.unit", 1) }))
	set("sim.counter_inc_ns_op", timeOp(ctr.Inc))
	set("sim.clock_advance_ns_op", timeOp(func() { m.Clock.Advance(1) }))
	set("histogram.record_ns_op", timeOp(func() { h.Record(1234) }))
	return out
}
