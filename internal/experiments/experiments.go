// Package experiments regenerates every table and figure in the paper's
// evaluation: Table 1 (map entries), Table 2 (fault counts), Table 3
// (map-fault-unmap latency), Figure 2 (object cache vs file access),
// Figure 5 (anonymous allocation under paging), Figure 6 (fork+wait
// overhead), the §7 data movement measurements, and the §8 /etc/rc note.
//
// Each driver boots both VM systems on identical machines and reports the
// paper's metric side by side. Absolute simulated times are not expected
// to match the 1999 testbed; orderings, ratios and crossover points are.
package experiments

import (
	"fmt"
	"io"
	"math"

	"uvm/internal/bsdvm"
	"uvm/internal/sim"
	"uvm/internal/uvm"
	"uvm/internal/vfs"
	"uvm/internal/vmapi"
)

// vnodeAlias keeps experiment signatures compact.
type vnodeAlias = vfs.Vnode

// profile is the machine profile every experiment machine boots with.
// Empty — the paper's hdd97 testbed — unless SetProfile was called, so
// default runs stay byte-identical to the pre-profile code. Set once by
// the driver before experiments run; not safe to change concurrently
// with a running experiment.
var profile string

// SetProfile selects the machine profile for subsequent experiment runs
// (uvmbench -profile). Empty restores the default.
func SetProfile(name string) error {
	if _, err := sim.CostsForProfile(name); err != nil {
		return err
	}
	profile = name
	return nil
}

// stdConfig is the paper's testbed: 32 MB of RAM (§6).
func stdConfig() vmapi.MachineConfig {
	return vmapi.MachineConfig{
		RAMPages:  32 << 20 >> 12,
		SwapPages: 128 << 20 >> 12,
		FSPages:   256 << 20 >> 12,
		MaxVnodes: 2000,
		Profile:   profile,
	}
}

// bigMemConfig gives enough RAM that an experiment is never memory-bound
// (used by Figure 2, which isolates the cache policy).
func bigMemConfig() vmapi.MachineConfig {
	cfg := stdConfig()
	cfg.RAMPages = 96 << 20 >> 12
	return cfg
}

// pair boots both systems on fresh, identical machines.
func pair(cfg vmapi.MachineConfig) (bsd, uv vmapi.System) {
	return bsdvm.Boot(vmapi.NewMachine(cfg)), uvm.Boot(vmapi.NewMachine(cfg))
}

// Runner is one experiment: it writes its report to w.
type Runner struct {
	ID    string
	Title string
	Run   func(w io.Writer) error
}

// All returns every experiment in paper order. quick trims the parameter
// sweeps for use under `go test`.
func All(quick bool) []Runner {
	return []Runner{
		{"table1", "Table 1: allocated map entries", func(w io.Writer) error { return ReportTable1(w) }},
		{"table2", "Table 2: page fault counts", func(w io.Writer) error { return ReportTable2(w) }},
		{"table3", "Table 3: map-fault-unmap time", func(w io.Writer) error { return ReportTable3(w, iters(quick, 200, 2000)) }},
		{"fig2", "Figure 2: object cache effect on file access", func(w io.Writer) error {
			return ReportFigure2(w, figure2Sizes(quick))
		}},
		{"fig5", "Figure 5: anonymous memory allocation time", func(w io.Writer) error {
			return ReportFigure5(w, figure5Sizes(quick))
		}},
		{"fig6", "Figure 6: fork+wait overhead", func(w io.Writer) error {
			return ReportFigure6(w, figure6Sizes(quick), iters(quick, 5, 25))
		}},
		{"datamove", "§7: data movement mechanisms vs copying", func(w io.Writer) error {
			return ReportDataMovement(w)
		}},
		{"rc", "§8: /etc/rc-style script time", func(w io.Writer) error { return ReportRC(w) }},
	}
}

func iters(quick bool, q, full int) int {
	if quick {
		return q
	}
	return full
}

func figure2Sizes(quick bool) []int {
	if quick {
		return []int{25, 75, 150, 300}
	}
	return []int{25, 50, 75, 100, 125, 150, 200, 250, 300, 400, 500}
}

func figure5Sizes(quick bool) []int {
	if quick {
		return []int{8, 24, 40}
	}
	return []int{2, 6, 10, 14, 18, 22, 26, 30, 34, 38, 42, 46, 50}
}

func figure6Sizes(quick bool) []int {
	if quick {
		return []int{0, 8}
	}
	return []int{0, 1, 2, 4, 6, 8, 10, 12, 15}
}

// Lookup returns the runner with the given id.
func Lookup(id string, quick bool) (Runner, bool) {
	for _, r := range All(quick) {
		if r.ID == id {
			return r, true
		}
	}
	return Runner{}, false
}

func header(w io.Writer, title string) {
	fmt.Fprintf(w, "\n%s\n", title)
	for range title {
		fmt.Fprint(w, "=")
	}
	fmt.Fprintln(w)
}

// linBar renders a linear bar for v on a scale reaching max, width
// characters wide (Figure 6's axes are linear).
func linBar(v, max float64, width int) string {
	if v <= 0 || max <= 0 {
		return ""
	}
	n := int(v / max * float64(width-1))
	out := make([]byte, n+1)
	for i := range out {
		out[i] = '#'
	}
	return string(out)
}

// logBar renders a logarithmic bar for v on a scale reaching max, width
// characters wide — enough to see the shape of a figure whose values span
// decades (as Figure 2's log-scale axis does).
func logBar(v, min, max float64, width int) string {
	if v <= 0 || max <= min {
		return ""
	}
	lv, lmin, lmax := math.Log(v), math.Log(min), math.Log(max)
	frac := (lv - lmin) / (lmax - lmin)
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	n := int(frac*float64(width-1)) + 1
	out := make([]byte, n)
	for i := range out {
		out[i] = '#'
	}
	return string(out)
}
