// Command uvmbench regenerates the paper's tables and figures.
//
// Usage:
//
//	uvmbench                      run every experiment (full parameter sweeps)
//	uvmbench -quick               run every experiment with trimmed sweeps
//	uvmbench -e fig5              run a single experiment by id
//	uvmbench -list                list experiment ids
//	uvmbench -profile nvme        run on a named machine profile
//	uvmbench -matrix -out DIR     run the workload × profile matrix,
//	                              one report file per cell in DIR
//	uvmbench -traffic             run the multi-tenant traffic driver
//	                              (knobs: -tenants -dataset-pages -zipf
//	                              -churn -ops)
//
// Experiment ids: table1 table2 table3 fig2 fig5 fig6 datamove rc
// scaling pressure reclaimbw objwb traffic. Machine profiles: hdd97
// (default, the paper's testbed), nvme, ramdisk. Without -profile the
// traffic experiment covers both hdd97 and nvme.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"uvm/internal/experiments"
	"uvm/internal/sim"
)

func main() {
	var (
		quick    = flag.Bool("quick", false, "trimmed parameter sweeps")
		exp      = flag.String("e", "", "run a single experiment by id")
		list     = flag.Bool("list", false, "list experiment ids")
		profile  = flag.String("profile", "", "machine profile: hdd97 | nvme | ramdisk (default hdd97)")
		matrix   = flag.Bool("matrix", false, "run the workload × profile matrix (with fault cells)")
		noFaults = flag.Bool("matrix-no-faults", false, "matrix: skip the fault-injected cells")
		out      = flag.String("out", "", "matrix: directory for per-cell report files")

		traffic = flag.Bool("traffic", false, "run the multi-tenant Zipf traffic driver")
		tenants = flag.Int("tenants", 0, "traffic: simulated tenant processes (0 = config default)")
		dataset = flag.Int("dataset-pages", 0, "traffic: corpus size in pages (0 = config default)")
		zipfS   = flag.Float64("zipf", -1, "traffic: Zipf popularity exponent (negative = config default)")
		churn   = flag.Int("churn", 0, "traffic: fork/exit churn period in requests (0 = config default)")
		ops     = flag.Int("ops", 0, "traffic: duration in requests per worker (0 = config default)")
	)
	flag.Parse()

	if err := experiments.SetProfile(*profile); err != nil {
		fmt.Fprintf(os.Stderr, "uvmbench: %v\n", err)
		os.Exit(1)
	}

	if *list {
		for _, r := range experiments.All(*quick) {
			fmt.Printf("%-10s %s\n", r.ID, r.Title)
		}
		return
	}
	if *matrix {
		if err := runMatrix(*out, !*noFaults, *quick); err != nil {
			fmt.Fprintf(os.Stderr, "uvmbench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *traffic {
		over := experiments.TrafficOverrides{
			Tenants:      *tenants,
			DatasetPages: *dataset,
			ZipfS:        *zipfS,
			ChurnEvery:   *churn,
			OpsPerWorker: *ops,
		}
		if err := experiments.ReportTraffic(os.Stdout, *quick, over); err != nil {
			fmt.Fprintf(os.Stderr, "uvmbench: traffic: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *exp != "" {
		r, ok := experiments.Lookup(*exp, *quick)
		if !ok {
			fmt.Fprintf(os.Stderr, "uvmbench: unknown experiment %q (try -list)\n", *exp)
			os.Exit(1)
		}
		if err := r.Run(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "uvmbench: %s: %v\n", r.ID, err)
			os.Exit(1)
		}
		return
	}
	for _, r := range experiments.All(*quick) {
		if err := r.Run(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "uvmbench: %s: %v\n", r.ID, err)
			os.Exit(1)
		}
	}
}

// runMatrix runs every workload × profile cell, writing one report file
// per cell into out (if set) and the summary to stdout. Exits non-zero
// if any cell fails — including on a leaked Busy page.
func runMatrix(out string, withFaults, quick bool) error {
	var emit func(name, report string) error
	if out != "" {
		if err := os.MkdirAll(out, 0o755); err != nil {
			return err
		}
		emit = func(name, report string) error {
			return os.WriteFile(filepath.Join(out, "matrix-"+name+".txt"), []byte(report), 0o644)
		}
	}
	return experiments.ReportMatrix(os.Stdout, sim.Profiles(), withFaults, quick, emit)
}
