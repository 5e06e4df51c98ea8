// Package analysis is the project's static-analysis suite: it enforces
// the concurrency and determinism invariants this codebase otherwise
// keeps only in prose (the lock-hierarchy note atop internal/uvm/system.go,
// the completion-callback rules, the "no wall clock in report paths"
// discipline).
//
// The suite is self-contained — it deliberately re-implements the small
// slice of golang.org/x/tools/go/analysis it needs (Analyzer, Pass,
// Diagnostic and an analysistest-style fixture runner) so the module
// keeps its zero-dependency build.
//
// Three analyzers:
//
//   - lockorder: every mutex-bearing struct field in the concurrency
//     core carries a machine-readable level tag (//uvm:lock <level>);
//     the analyzer walks each function body building the static
//     acquired-while-held set and flags any blocking Lock/RLock that
//     goes up or sideways in the declared hierarchy. TryLock
//     acquisitions are exempt but recorded as held, and a blocking
//     Lock on a *different* same-level lock inside the failure branch
//     of a TryLock is flagged as TryLock-protocol misuse.
//
//   - completioncallback: functions annotated //uvm:completion (the
//     swap/disk AIO and object-writeback completion bodies) and
//     everything statically reachable from them must never blockingly
//     acquire system/map/vnobj/object/amap/anon locks and must not
//     block on condition variables.
//
//   - simdet: in the packages that feed the paper reports, wall-clock
//     reads (time.Now and friends), math/rand, and range over a map
//     are flagged — each with an explicit waiver directive for the few
//     sites that are nondeterministic on purpose.
//
// The annotation grammar is documented in docs/analysis.md. The suite
// runs as a Go test, go test ./internal/analysis: TestSuiteCleanOverRealTree
// loads every package of the module and fails on any diagnostic.
package analysis
