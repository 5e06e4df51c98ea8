package uvm

import (
	"uvm/internal/param"
	"uvm/internal/phys"
)

// Object writeback: the paths that clean dirty uobject pages without
// evicting them — Msync, vnode recycling, the last-unmap flush. Each is
// one clean-policy flight (flight.go) over the object's dirty pages:
//
//  1. Collect. Under o.mu, the dirty in-range pages are walked in
//     ascending index order (the object's page index is ordered; the
//     flush order decides the disk head's path and so must be
//     byte-deterministic) and each page is marked Busy — claiming it for
//     this flush.
//  2. Issue. Still under o.mu (the aobj slot assignment needs it), the
//     pages leave as runs of consecutive indices, at most wbClusterMax
//     long, each one I/O: vnode pages to the file, aobj pages to a fresh
//     contiguous run of swap slots. A synchronous flush (the default)
//     writes its runs in ascending index order, charged to the caller's
//     clock, and is complete before o.mu is released. An asynchronous one
//     (cfg.AsyncWriteback) first narrows the pages' writable mappings, so
//     a store during the flight faults and sleeps instead of scribbling
//     on a frame the I/O owns, then pushes the same runs through the
//     backend's bounded in-flight window; submissions block only while
//     the window is full, and completions never take o.mu, so waiting
//     here cannot deadlock.
//  3. Complete. The flight's last completion — on an I/O goroutine,
//     holding no locks — clears Dirty then Busy and wakes every path
//     sleeping on a busy page. Callers that need msync semantics wait on
//     the flight; callers that only want the data on its way (last
//     unmap) fire and forget.
//
// Busy pages observed under o.mu always belong to such a flush: every
// other Busy setter (pager get, reclaim clustering) holds the
// object/anon lock for the whole busy window. waitObjPageIdle exploits
// that — it sleeps on the flight condvar, which exactly those
// completions broadcast.

// maxPageIdx is the whole-object upper bound for index-range flushes.
const maxPageIdx = int(^uint(0) >> 1)

// waitObjPageIdle sleeps until pg — observed Busy in o's page index — is
// no longer busy, or until the next flight completion (whichever is
// first). Caller holds o.mu; the lock is dropped while sleeping and
// re-held on return, so the caller must re-look its page up and
// re-decide. A page that is Busy while its object mutex is free is
// always mid-writeback-flush, so the flush completion's broadcast is
// guaranteed to arrive.
func (s *System) waitObjPageIdle(o *uobject, pg *phys.Page) {
	s.mach.Stats.ObjWbWaits.Inc()
	s.flMu.Lock()
	gen := s.flGen
	o.mu.Unlock()
	for s.flGen == gen && pg.Busy.Load() {
		s.flCond.Wait()
	}
	s.flMu.Unlock()
	o.mu.Lock()
}

// flushLocked claims the dirty, idle pages of o with index in
// [loIdx, hiIdx], in ascending index order, and issues them as one
// clean-policy flight; nil means nothing was dirty. With waitBusy, pages
// already claimed by another flush are waited out and re-examined (msync
// semantics: the data must be clean when we return); without it they are
// skipped (fire-and-forget paths). Caller holds o.mu — dropped and
// re-taken around waits — and must release it before waiting on an
// asynchronous flight.
func (s *System) flushLocked(o *uobject, loIdx, hiIdx int, async, waitBusy bool) *flight {
	var pages []*phys.Page
	for idx, pg := range o.pages.Range(loIdx, hiIdx) {
		for waitBusy && pg != nil && pg.Busy.Load() {
			s.waitObjPageIdle(o, pg)
			pg, _ = o.pages.Get(idx)
		}
		if pg == nil || pg.Busy.Load() || !pg.Dirty.Load() {
			continue
		}
		pg.Busy.Store(true)
		if async {
			// Stores must fault (and then sleep on Busy) while the I/O owns
			// the frame's contents; reads stay mapped.
			s.mach.MMU.PageProtect(pg, param.ProtRX)
		}
		pages = append(pages, pg)
	}
	if len(pages) == 0 {
		return nil
	}
	fl := s.newFlight(false, async, nil, len(pages))
	fl.objRuns(o, pages)
	fl.submit()
	return fl
}

// wbClusterMax returns the longest run of consecutive object pages a
// flight writes in one I/O, synchronous or not: 1 under
// cfg.DisableClustering, the switch for "no clustering anywhere".
func (s *System) wbClusterMax() int {
	switch {
	case s.cfg.DisableClustering:
		return 1
	case s.cfg.WritebackCluster > 0:
		return s.cfg.WritebackCluster
	}
	return maxCluster
}

// flushObjectRange cleans the dirty pages of o with index in
// [loIdx, hiIdx] and waits until they are on backing store, returning
// the number of pages written and the first error.
func (s *System) flushObjectRange(o *uobject, loIdx, hiIdx int) (int, error) {
	o.mu.Lock()
	fl := s.flushLocked(o, loIdx, hiIdx, s.cfg.AsyncWriteback, true)
	o.mu.Unlock()
	if fl == nil {
		return 0, nil
	}
	if gate := s.msyncGate; gate != nil {
		gate()
	}
	return fl.wait()
}

// bdwriteDirtyLocked queues o's dirty pages through the buffer cache in
// ascending index order (deterministic — the sweep order decides the
// head's path): the synchronous configuration's last-unmap and recycle
// write-back. Not a flight — the caller pays only the in-memory copy,
// the page is clean at once and never Busy. Caller holds o.mu.
func (s *System) bdwriteDirtyLocked(o *uobject) {
	for idx, pg := range o.pages.Range(0, maxPageIdx) {
		if pg.Dirty.Load() {
			_ = o.vnode.WritePageAsync(idx, pg.Freeze())
			pg.Dirty.Store(false)
		}
	}
}

// waitObjIdleLocked waits until no page of o is claimed by an in-flight
// flush. Teardown paths (vnode recycling) call it before freeing frames:
// a frame still riding a writeback belongs to the I/O. Caller holds
// o.mu, which is dropped and re-taken around waits, so a pass that waited
// is followed by another: it returns after a pass that found no page busy.
func (s *System) waitObjIdleLocked(o *uobject) {
	for again := true; again; {
		again = false
		for _, pg := range o.pages.Range(0, maxPageIdx) {
			if pg.Busy.Load() {
				s.waitObjPageIdle(o, pg)
				again = true
			}
		}
	}
}
