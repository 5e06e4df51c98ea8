package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// bound is one end-to-end metric's entry in BENCHMARK.json.
type bound struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// Verdicts of one metric x workload cell.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// quartiles returns the first, second and third quartile of values the
// way Python's statistics.quantiles(values, n=4) does (exclusive
// method). A single value is all three of its own quartiles.
func quartiles(values []float64) (q1, q2, q3 float64) {
	data := append([]float64(nil), values...)
	sort.Float64s(data)
	m := len(data)
	if m == 1 {
		return data[0], data[0], data[0]
	}
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (data[j-1]*(4-delta) + data[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// cell is the comparison of one metric on one workload.
type cell struct {
	medA, medB float64
	spread     float64 // wider of the two sides' interquartile range / median
	worse      float64 // share of medA by which medB is worse (negative = better)
	verdict    string
}

// judge compares side b against base a for a metric with bound bd.
// Where the spread is wider than the bound the cell is unresolved, not
// unchanged — unless every run of b reads better than every run of a.
func judge(a, b []float64, bd bound) cell {
	q1a, medA, q3a := quartiles(a)
	q1b, medB, q3b := quartiles(b)
	c := cell{medA: medA, medB: medB}
	c.spread = max((q3a-q1a)/medA, (q3b-q1b)/medB)
	c.worse = (medB - medA) / medA
	if bd.Better == "higher" {
		c.worse = -c.worse
	}
	switch {
	case c.spread > bd.Bound && !allBetter(a, b, bd.Better == "higher"):
		c.verdict = verdictUnresolved
	case c.worse > bd.Bound:
		c.verdict = verdictRegressed
	default:
		c.verdict = verdictOK
	}
	return c
}

// allBetter reports whether every value of b beats every value of a.
func allBetter(a, b []float64, higher bool) bool {
	for _, x := range a {
		for _, y := range b {
			if higher && y <= x || !higher && y >= x {
				return false
			}
		}
	}
	return true
}

// untraced collects a set's end-to-end values: workload -> metric -> runs.
func untraced(s *set) map[string]map[string][]float64 {
	out := map[string]map[string][]float64{}
	for _, r := range s.Runs {
		if r.Trace != 0 {
			continue
		}
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for name, m := range r.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], m.Value)
		}
	}
	return out
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// compareSets prints one row per end-to-end metric x workload — both
// medians, the ratio with its base, the spread and the verdict — and
// reports whether any cell regressed.
func compareSets(w io.Writer, bounds []bound, a, b *set) (regressed bool, err error) {
	va, vb := untraced(a), untraced(b)
	fmt.Fprintf(w, "%-12s %-15s %14s %14s %22s %8s %6s  %s\n",
		"workload", "metric", "median A", "median B", "B/A (base A)", "spread", "bound", "verdict")
	counts := map[string]int{}
	for _, wl := range workloads {
		for _, bd := range bounds {
			xa, xb := va[wl.name][bd.Name], vb[wl.name][bd.Name]
			if len(xa) == 0 || len(xb) == 0 {
				return false, fmt.Errorf("no %s runs of %s in both sets", bd.Name, wl.name)
			}
			c := judge(xa, xb, bd)
			counts[c.verdict]++
			fmt.Fprintf(w, "%-12s %-15s %14.6g %14.6g %8.4f of %-10.6g %7.1f%% %5.0f%%  %s\n",
				wl.name, bd.Name, c.medA, c.medB, c.medB/c.medA, c.medA, 100*c.spread, 100*bd.Bound, c.verdict)
		}
	}
	fmt.Fprintf(w, "%d ok, %d unresolved, %d regressed\n",
		counts[verdictOK], counts[verdictUnresolved], counts[verdictRegressed])
	return counts[verdictRegressed] > 0, nil
}

// compareFiles is compareSets over a BENCHMARK.json and two set files.
func compareFiles(w io.Writer, boundsPath, pathA, pathB string) (bool, error) {
	var bench struct {
		EndToEnd []bound `json:"end_to_end"`
	}
	if err := readJSON(boundsPath, &bench); err != nil {
		return false, err
	}
	var a, b set
	if err := readJSON(pathA, &a); err != nil {
		return false, err
	}
	if err := readJSON(pathB, &b); err != nil {
		return false, err
	}
	return compareSets(w, bench.EndToEnd, &a, &b)
}
