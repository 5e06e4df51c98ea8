package bsdvm

// objCache is BSD VM's private cache of unreferenced memory objects — the
// second caching layer (beside the vnode cache) that the paper's §4
// criticises. It is limited to cfg.ObjCacheLimit objects (one hundred in
// 4.4BSD); while an object sits in the cache it continues to hold a
// reference on its vnode, pinning the vnode active and preventing the
// vnode LRU from choosing it for recycling.
type objCache struct {
	limit int
	seq   int64
	objs  map[*object]struct{}
}

// enter places a newly unreferenced object in the cache, evicting the
// least recently cached object if the cache is full — "even if memory is
// available" (§4), which is the Figure 2 cliff.
func (c *objCache) enter(s *System, o *object) {
	if c.objs == nil {
		c.objs = make(map[*object]struct{})
	}
	c.seq++
	o.cached = true
	o.cacheSeq = c.seq
	c.objs[o] = struct{}{}
	s.mach.Stats.BsdObjCachePeak.Max(int64(len(c.objs)))
	for len(c.objs) > c.limit {
		victim := c.lru()
		c.remove(s, victim)
		s.mach.Stats.BsdObjCacheEvictions.Inc()
		s.terminate(victim)
	}
}

// lru returns the least recently cached object.
func (c *objCache) lru() *object {
	var victim *object
	//uvm:maporder-ok strict minimum over unique cacheSeq values; order-independent
	for o := range c.objs {
		if victim == nil || o.cacheSeq < victim.cacheSeq {
			victim = o
		}
	}
	return victim
}

// remove takes an object out of the cache (on reuse or eviction).
func (c *objCache) remove(s *System, o *object) {
	delete(c.objs, o)
	o.cached = false
}

// size returns the number of cached objects.
func (c *objCache) size() int { return len(c.objs) }
