// Command uvmbench regenerates the paper's tables and figures.
//
// Usage:
//
//	uvmbench                      run every experiment (full parameter sweeps)
//	uvmbench -quick               run every experiment with trimmed sweeps
//	uvmbench -e fig5              run a single experiment by id
//	uvmbench -list                list experiment ids
//	uvmbench -profile nvme        run on a named machine profile
//
// Experiment ids: table1 table2 table3 fig2 fig5 fig6 datamove rc.
// Machine profiles: hdd97 (default, the paper's testbed), nvme, ramdisk.
// Load beyond the paper — concurrency, reclaim and writeback pipelines,
// multi-tenant traffic — is measured by bench/uvmperf.
package main

import (
	"flag"
	"fmt"
	"os"

	"uvm/internal/experiments"
)

func main() {
	var (
		quick   = flag.Bool("quick", false, "trimmed parameter sweeps")
		exp     = flag.String("e", "", "run a single experiment by id")
		list    = flag.Bool("list", false, "list experiment ids")
		profile = flag.String("profile", "", "machine profile: hdd97 | nvme | ramdisk (default hdd97)")
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
	runners := experiments.All(*quick)
	if *exp != "" {
		r, ok := experiments.Lookup(*exp, *quick)
		if !ok {
			fmt.Fprintf(os.Stderr, "uvmbench: unknown experiment %q (try -list)\n", *exp)
			os.Exit(1)
		}
		runners = []experiments.Runner{r}
	}
	for _, r := range runners {
		if err := r.Run(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "uvmbench: %s: %v\n", r.ID, err)
			os.Exit(1)
		}
	}
}
