// Command quickstart boots a simulated machine, runs UVM on it, and exercises the
// basic API — file mapping, copy-on-write, fork isolation, and paging.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"uvm/internal/param"
	"uvm/internal/uvm"
	"uvm/internal/vmapi"
)

func main() {
	// The paper's 32 MB testbed.
	cfg := vmapi.DefaultConfig()
	mach := vmapi.NewMachine(cfg)
	sys := uvm.Boot(mach)

	// Create a file and a process.
	if err := mach.FS.Create("/etc/motd", 2*param.PageSize, func(idx int, buf []byte) {
		copy(buf, fmt.Sprintf("hello from page %d of motd\n", idx))
	}); err != nil {
		log.Fatal(err)
	}
	proc, err := sys.NewProcess("demo")
	if err != nil {
		log.Fatal(err)
	}

	// Map the file copy-on-write and read it through the mapping.
	vn, err := mach.FS.Open("/etc/motd")
	if err != nil {
		log.Fatal(err)
	}
	va, err := proc.Mmap(0, 2*param.PageSize, param.ProtRW, vmapi.MapPrivate, vn, 0)
	if err != nil {
		log.Fatal(err)
	}
	buf := make([]byte, 27)
	if err := proc.ReadBytes(va, buf); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("mapped file reads: %q\n", buf)

	// A private write stays out of the file.
	if err := proc.WriteBytes(va, []byte("REWRITTEN")); err != nil {
		log.Fatal(err)
	}
	onDisk := make([]byte, param.PageSize)
	vn.ReadPage(0, onDisk)
	fmt.Printf("after private write, file still starts: %q\n", onDisk[:5])

	// Fork: the child sees the parent's memory copy-on-write.
	child, err := proc.Fork("child")
	if err != nil {
		log.Fatal(err)
	}
	if err := child.ReadBytes(va, buf[:9]); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("child inherited:   %q\n", buf[:9])
	child.WriteBytes(va, []byte("CHILDDATA"))
	proc.ReadBytes(va, buf[:9])
	fmt.Printf("parent unaffected: %q\n", buf[:9])

	// Allocate more anonymous memory than RAM: reclaim clusters the
	// pageout.
	big, err := proc.Mmap(0, 48<<20, param.ProtRW, vmapi.MapAnon|vmapi.MapPrivate, nil, 0)
	if err != nil {
		log.Fatal(err)
	}
	if err := proc.TouchRange(big, 48<<20, true); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ntouched 48 MB on a %d MB machine in %v simulated time\n",
		int64(cfg.RAMPages)>>(20-param.PageShift), mach.Clock.Now())
	fmt.Printf("pageouts: %d pages in %d swap I/Os (clusters of ~%d)\n",
		mach.Stats.Get("vm.pageouts"), mach.Stats.Get("swap.ios"),
		mach.Stats.Get("vm.pageouts")/max64(1, mach.Stats.Get("swap.ios")))

	child.Exit()
	proc.Exit()
	vn.Unref()
	fmt.Printf("after exit: %d swap slots in use, %d anons live\n",
		mach.Swap.SlotsInUse(), mach.Stats.Get("uvm.anon.live"))
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
