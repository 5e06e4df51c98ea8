// Command forkfarm is the §5 comparison made visible. A parent with a dirty
// anonymous region forks workers in a loop; each worker rewrites the
// region and exits. Under BSD VM this grows shadow-object chains that the
// collapse operation must constantly repair (and which leak swap if it
// ever misses); under UVM the amap/anon reference counts make the whole
// collapse machinery unnecessary.
//
//	go run ./examples/forkfarm
package main

import (
	"fmt"
	"log"

	"uvm/internal/bsdvm"
	"uvm/internal/param"
	"uvm/internal/uvm"
	"uvm/internal/vmapi"
)

const (
	regionPages = 64
	workers     = 20
)

func main() {
	cfg := vmapi.MachineConfig{
		RAMPages: 2048, SwapPages: 8192, FSPages: 1024, MaxVnodes: 100,
	}
	if err := cfg.Validate(); err != nil {
		log.Fatal(err)
	}

	for _, boot := range []vmapi.Booter{bsdvm.Boot, uvm.Boot} {
		mach := vmapi.NewMachine(cfg)
		sys := boot(mach)
		parent, err := sys.NewProcess("farmer")
		if err != nil {
			log.Fatal(err)
		}
		va, err := parent.Mmap(0, regionPages*param.PageSize, param.ProtRW,
			vmapi.MapAnon|vmapi.MapPrivate, nil, 0)
		if err != nil {
			log.Fatal(err)
		}
		if err := parent.TouchRange(va, regionPages*param.PageSize, true); err != nil {
			log.Fatal(err)
		}

		t0 := mach.Clock.Now()
		for i := 0; i < workers; i++ {
			w, err := parent.Fork(fmt.Sprintf("worker%d", i))
			if err != nil {
				log.Fatal(err)
			}
			// The worker rewrites the region (a full COW storm) and the
			// parent refreshes it afterwards.
			if err := w.TouchRange(va, regionPages*param.PageSize, true); err != nil {
				log.Fatal(err)
			}
			if err := parent.TouchRange(va, regionPages*param.PageSize, true); err != nil {
				log.Fatal(err)
			}
			w.Exit()
		}
		elapsed := mach.Clock.Since(t0)

		fmt.Printf("%s: %d workers over a %d KB region\n", sys.Name(), workers, regionPages*4)
		fmt.Printf("  simulated time:   %v\n", elapsed)
		fmt.Printf("  pages copied:     %d\n", mach.Stats.Get("vm.pages.copied"))
		if sys.Name() == "bsdvm" {
			fmt.Printf("  collapse scans:   %d (merged %d chains, freed %d redundant pages)\n",
				mach.Stats.Get("bsdvm.collapse.scan"),
				mach.Stats.Get("bsdvm.collapse.merged"),
				mach.Stats.Get("bsdvm.collapse.redundant_pages"))
		} else {
			fmt.Printf("  collapse scans:   0 (reference counts make collapse unnecessary)\n")
		}
		fmt.Printf("  swap in use:      %d slots\n\n", mach.Swap.SlotsInUse())
	}
}
