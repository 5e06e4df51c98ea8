// Command vmstat boots a VM system, runs a named scenario, and dumps the
// system's statistics counters and map-entry census — useful for
// inspecting how the two systems behave structurally.
//
// Usage:
//
//	vmstat -sys uvm -scenario multiuser
//	vmstat -sys bsdvm -scenario x11
//	vmstat -sys uvm -scenario filesweep -profile nvme
//
// Scenarios: single, multiuser, x11, forkstorm, filesweep. Machine
// profiles: hdd97 (default, the paper's testbed), nvme, ramdisk — each
// with its own cost table and machine-size preset.
package main

import (
	"flag"
	"fmt"
	"os"

	"uvm/internal/bsdvm"
	"uvm/internal/param"
	"uvm/internal/uvm"
	"uvm/internal/vmapi"
	"uvm/internal/workload"
)

func main() {
	var (
		sysName  = flag.String("sys", "uvm", "vm system: uvm or bsdvm")
		scenario = flag.String("scenario", "multiuser", "single | multiuser | x11 | forkstorm | filesweep")
		profile  = flag.String("profile", "", "machine profile: hdd97 | nvme | ramdisk (default hdd97)")
	)
	flag.Parse()

	cfg, err := vmapi.ProfileConfig(*profile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "vmstat: %v\n", err)
		os.Exit(1)
	}
	if err := cfg.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "vmstat: %v\n", err)
		os.Exit(1)
	}
	mach := vmapi.NewMachine(cfg)
	var sys vmapi.System
	switch *sysName {
	case "uvm":
		sys = uvm.Boot(mach)
	case "bsdvm":
		sys = bsdvm.Boot(mach)
	default:
		fmt.Fprintf(os.Stderr, "vmstat: unknown system %q\n", *sysName)
		os.Exit(1)
	}

	if err := run(sys, *scenario); err != nil {
		fmt.Fprintf(os.Stderr, "vmstat: %v\n", err)
		os.Exit(1)
	}
	// Wait out reclaim and in-flight writes before reading the counters
	// so the report is a quiescent snapshot.
	sys.Shutdown()

	fmt.Printf("system: %s  scenario: %s\n", sys.Name(), *scenario)
	fmt.Printf("simulated time: %v\n", mach.Clock.Now())
	fmt.Printf("map entries: kernel=%d total=%d\n", sys.KernelMapEntries(), sys.TotalMapEntries())
	fmt.Printf("memory: total=%d free=%d active=%d inactive=%d pages\n",
		mach.Mem.TotalPages(), mach.Mem.FreePages(), mach.Mem.ActivePages(), mach.Mem.InactivePages())
	fmt.Printf("swap: %d/%d slots\n\n", mach.Swap.SlotsInUse(), mach.Swap.Slots())
	fmt.Print(mach.Stats.String())
}

func run(sys vmapi.System, scenario string) error {
	switch scenario {
	case "single":
		_, err := workload.SingleUserBoot(sys)
		return err
	case "multiuser":
		_, err := workload.MultiUserBoot(sys)
		return err
	case "x11":
		_, err := workload.StartX11(sys)
		return err
	case "forkstorm":
		p, err := sys.NewProcess("storm")
		if err != nil {
			return err
		}
		va, err := p.Mmap(0, 4<<20, param.ProtRW, vmapi.MapAnon|vmapi.MapPrivate, nil, 0)
		if err != nil {
			return err
		}
		if err := p.TouchRange(va, 4<<20, true); err != nil {
			return err
		}
		for i := 0; i < 10; i++ {
			child, err := p.Fork(fmt.Sprintf("c%d", i))
			if err != nil {
				return err
			}
			if err := child.TouchRange(va, 4<<20, true); err != nil {
				return err
			}
			child.Exit()
		}
		return nil
	case "filesweep":
		srv, err := workload.NewFileServer(sys, 200, 16)
		if err != nil {
			return err
		}
		defer srv.Close()
		if _, err := srv.ServeAll(); err != nil {
			return err
		}
		_, err = srv.ServeAll()
		return err
	default:
		return fmt.Errorf("unknown scenario %q", scenario)
	}
}
