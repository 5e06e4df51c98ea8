// Package vmmap is the sorted entry list both VM systems build their maps
// on: the vm_map of §3. What the paper contrasts at the map level — one-
// or two-step mmap, single- or two-phase unmap, a fixed kernel entry pool
// or entry merging, wiring recorded in the map or in the pmap — is policy
// each system layers over this one structure. The list, its first-fit
// allocator, its clipping and its integrity check exist once, here.
package vmmap

import (
	"fmt"
	"iter"
	"time"

	"uvm/internal/param"
	"uvm/internal/sim"
	"uvm/internal/vmapi"
)

// Link is the header a map entry embeds: its neighbours in the list, the
// entry it heads, and the range [Start, End) it maps. The walks follow
// links alone, so they make no call through the entry type.
type Link[E any] struct {
	prev, next *Link[E]
	entry      *E
	Start, End param.VAddr
}

func (l *Link[E]) link() *Link[E] { return l }

// Pages returns the entry's length in pages.
func (l *Link[E]) Pages() int { return int((l.End - l.Start) >> param.PageShift) }

// Entry is a pointer to an entry type that embeds Link.
type Entry[E any] interface {
	*E
	link() *Link[E]
	// Shift moves what the entry maps n pages on, for an entry whose Start
	// moved n pages up: its object offset and, in UVM, its amap slot.
	Shift(n int)
}

// Map is a sorted doubly-linked list of non-overlapping entries inside
// [min, max). The owning map's lock covers every call.
type Map[E any, P Entry[E]] struct {
	name     string
	min, max param.VAddr
	// AllocMax caps FindSpace and EntriesIn: entries between it and max
	// are bookkeeping (BSD VM's page-table placeholders) that no range
	// call reaches.
	AllocMax param.VAddr

	head, tail *Link[E]
	n          int

	clock *sim.Clock
	costs *sim.Costs
	// dup returns a new entry equal to e that holds its own references to
	// e's backing memory: the half of a clip that EntriesIn links in.
	dup func(e P) P
}

// New returns an empty map of [min, max) whose walks charge
// costs.MapLookupEntry per entry inspected to clock.
func New[E any, P Entry[E]](name string, min, max param.VAddr, clock *sim.Clock, costs *sim.Costs, dup func(P) P) Map[E, P] {
	return Map[E, P]{name: name, min: min, max: max, AllocMax: max, clock: clock, costs: costs, dup: dup}
}

// Len returns the number of entries.
func (m *Map[E, P]) Len() int { return m.n }

// All yields the entries in address order.
func (m *Map[E, P]) All() iter.Seq[P] {
	return func(yield func(P) bool) {
		for l := m.head; l != nil; l = l.next {
			if !yield(l.entry) {
				return
			}
		}
	}
}

// Insert links e in address order. An overlap is a VM bug: it panics.
func (m *Map[E, P]) Insert(e P) {
	l := e.link()
	var after *Link[E]
	for c := m.head; c != nil; c = c.next {
		if c.Start >= l.End {
			break
		}
		if c.End > l.Start {
			panic("vmmap: overlapping map entries: " + m.name)
		}
		after = c
	}
	m.linkAfter(after, e)
}

// linkAfter links e after `after`, or first when after is nil.
func (m *Map[E, P]) linkAfter(after *Link[E], e P) {
	l := e.link()
	l.entry = (*E)(e)
	if after == nil {
		l.prev, l.next = nil, m.head
		m.head = l
	} else {
		l.prev, l.next = after, after.next
		after.next = l
	}
	if l.next != nil {
		l.next.prev = l
	} else {
		m.tail = l
	}
	m.n++
}

// Unlink removes e from the list.
func (m *Map[E, P]) Unlink(e P) {
	l := e.link()
	if l.prev != nil {
		l.prev.next = l.next
	} else {
		m.head = l.next
	}
	if l.next != nil {
		l.next.prev = l.prev
	} else {
		m.tail = l.prev
	}
	l.prev, l.next = nil, nil
	m.n--
}

// Lookup returns the entry containing va, or nil, charging the
// per-entry cost of the list walk.
func (m *Map[E, P]) Lookup(va param.VAddr) P { return m.find(va, m.costs.MapLookupEntry) }

// LookupQuiet is Lookup without the charge, for a re-lookup whose walk
// was already paid for (UVM's fault after a read->write lock upgrade).
func (m *Map[E, P]) LookupQuiet(va param.VAddr) P { return m.find(va, 0) }

func (m *Map[E, P]) find(va param.VAddr, cost time.Duration) P {
	for c := m.head; c != nil; c = c.next {
		m.clock.Advance(cost)
		if va >= c.Start && va < c.End {
			return c.entry
		}
		if c.Start > va {
			return nil
		}
	}
	return nil
}

// FindSpace returns the lowest free range of length bytes at or above
// hint (or the map's floor), first fit, below AllocMax.
func (m *Map[E, P]) FindSpace(hint param.VAddr, length param.VSize) (param.VAddr, error) {
	if length == 0 {
		return 0, vmapi.ErrInvalid
	}
	start := m.min
	if hint > start {
		start = param.Trunc(hint)
	}
	for c := m.head; c != nil; c = c.next {
		m.clock.Advance(m.costs.MapLookupEntry)
		if c.End <= start {
			continue
		}
		if c.Start >= start && param.VSize(c.Start-start) >= length {
			return start, nil
		}
		start = c.End
	}
	if end := start + param.VAddr(length); end > m.AllocMax || end < start {
		return 0, vmapi.ErrNoSpace
	}
	return start, nil
}

// EntriesIn returns the entries overlapping [start, end) below AllocMax,
// clipping the boundary entries so the result covers exactly the range.
// Both bounds must be page-aligned; an empty range has no entries.
func (m *Map[E, P]) EntriesIn(start, end param.VAddr) []P {
	end = min(end, m.AllocMax)
	if start >= end {
		return nil
	}
	var out []P
	for c := m.head; c != nil; c = c.next {
		m.clock.Advance(m.costs.MapLookupEntry)
		if c.End <= start {
			continue
		}
		if c.Start >= end {
			break
		}
		cur := P(c.entry)
		if c.Start < start {
			// Split off the head [c.Start, start) as a new entry before cur.
			h := m.dup(cur)
			h.link().End = start
			cur.Shift(int((start - c.Start) >> param.PageShift))
			c.Start = start
			m.linkAfter(c.prev, h)
		}
		if c.End > end {
			// Split off the tail [end, c.End) as a new entry after cur.
			t := m.dup(cur)
			t.Shift(int((end - c.Start) >> param.PageShift))
			t.link().Start = end
			c.End = end
			m.linkAfter(c, t)
		}
		out = append(out, cur)
	}
	return out
}

// Check verifies the list: every entry non-empty and inside the map,
// sorted without overlap, with consistent back links, tail and count.
// each, when non-nil, checks one entry's own payload.
func (m *Map[E, P]) Check(each func(P) error) error {
	count := 0
	var prev *Link[E]
	for c := m.head; c != nil; c = c.next {
		count++
		switch {
		case c.Start >= c.End:
			return m.errf("entry %x-%x empty or inverted", c.Start, c.End)
		case c.Start < m.min || c.End > m.max:
			return m.errf("entry %x-%x outside map %x-%x", c.Start, c.End, m.min, m.max)
		case prev != nil && prev.End > c.Start:
			return m.errf("entries overlap: %x-%x then %x-%x", prev.Start, prev.End, c.Start, c.End)
		case c.prev != prev:
			return m.errf("broken prev link at %x", c.Start)
		case P(c.entry).link() != c:
			return m.errf("entry at %x is not the one its link heads", c.Start)
		}
		if each != nil {
			if err := each(c.entry); err != nil {
				return err
			}
		}
		prev = c
	}
	if m.tail != prev {
		return m.errf("tail mismatch")
	}
	if count != m.n {
		return m.errf("entry count %d != n %d", count, m.n)
	}
	return nil
}

func (m *Map[E, P]) errf(format string, args ...any) error {
	return fmt.Errorf("vmmap %s: "+format, append([]any{m.name}, args...)...)
}
