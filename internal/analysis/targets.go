package analysis

import "strings"

// Package targeting. Analyzers key off the import-path suffix under the
// module so the same tables work for the real tree ("uvm/internal/...")
// and for test fixtures ("uvm/internal/..." under testdata/src).

// lockCorePackages are the concurrency-bearing packages where every
// mutex field must carry a //uvm:lock annotation and the lockorder and
// completioncallback analyzers enforce the hierarchy.
var lockCorePackages = []string{
	"internal/uvm",
	"internal/phys",
	"internal/pmap",
	"internal/swap",
	"internal/vfs",
	"internal/disk",
	"internal/sysv",
	"internal/bsdvm",
}

// simdetPackages feed the paper reports: wall-clock reads, math/rand
// and map-iteration order in these packages change report bytes or I/O
// ordering.
var simdetPackages = []string{
	"internal/sim",
	"internal/experiments",
	"internal/uvm",
	"internal/bsdvm",
	"internal/vmmap",
	"internal/pageidx",
	"internal/swap",
	"internal/vfs",
	"internal/disk",
}

// pkgInSet reports whether path ends in one of the listed suffixes.
func pkgInSet(path string, set []string) bool {
	for _, s := range set {
		if path == s || strings.HasSuffix(path, "/"+s) {
			return true
		}
	}
	return false
}
