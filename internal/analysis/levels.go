package analysis

// Levels is the declared lock hierarchy, highest (outermost) first. It
// is the machine-readable form of the ordering documented atop
// internal/uvm/system.go — map -> object -> amap -> anon -> flights ->
// leaf — with the leaf tier split into its documented
// sub-levels (pmap above pv bucket, magazine above queue shard, and so
// on).
//
// A blocking acquisition is legal only if its level sits strictly below
// every level already held; TryLock acquisitions are exempt from the
// check (they cannot contribute a blocking edge to a cycle) but the
// acquired lock still counts as held afterwards.
//
// docs/analysis.md lists these same names; scripts/check-docs.sh fails
// if the two sets drift apart.
var Levels = []string{
	"system",   // process tables, bsdvm's big kernel lock
	"shmreg",   // sysv.Registry.mu — held across segment attach/detach
	"shmseg",   // uvm shmSegment.mu — held across the target map lock
	"map",      // vmMap.mu — the per-address-space map lock
	"vnobj",    // System.vnObjMu — vnode<->object identity
	"object",   // uobject.mu
	"amap",     // amap.mu — the amap's reference count and slots
	"anon",     // anon.mu
	"wbcond",   // System.flMu — flight counters/result lists, the reclaim pass's state, and their condvar
	"pmap",     // Pmap.mu — one address space's page table
	"pvbucket", // MMU reverse-map bucket locks (strict leaves within pmap)
	"magazine", // phys per-CPU free-page magazines
	"pageq",    // phys page-queue shards
	"swap",     // swap allocator shard locks
	"vfs",      // FS.mu — vnode cache and file table
	"disk",     // Disk.mu — the device itself
	"leaf",     // terminal: nothing is ever acquired while held
}

// levelRank maps a level name to its position in Levels (0 = outermost).
var levelRank = func() map[string]int {
	m := make(map[string]int, len(Levels))
	for i, l := range Levels {
		m[l] = i
	}
	return m
}()

// KnownLevel reports whether name is a declared lock level.
func KnownLevel(name string) bool {
	_, ok := levelRank[name]
	return ok
}

// rankOf returns the hierarchy position of level (smaller = outermost).
func rankOf(level string) int { return levelRank[level] }

// completionForbidden are the levels a completion callback may never
// blockingly acquire: it runs holding (at most) anon/object locks handed
// over with the I/O, so anything at or above anon would invert the
// hierarchy against a concurrent fault.
var completionForbidden = map[string]bool{
	"system": true,
	"shmreg": true,
	"shmseg": true,
	"map":    true,
	"vnobj":  true,
	"object": true,
	"amap":   true,
	"anon":   true,
}
