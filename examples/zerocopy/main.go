// Command zerocopy exercises the three §7 data movement mechanisms, used together as an
// IPC pipeline. A producer builds a message in its address space and
// moves it to a consumer three ways: classic double copy, page loanout +
// page transfer (zero copy, COW preserved), and map entry passing.
//
//	go run ./examples/zerocopy
package main

import (
	"fmt"
	"log"

	"uvm/internal/param"
	"uvm/internal/uvm"
	"uvm/internal/vmapi"
)

const msgPages = 64 // 256 KB message

func main() {
	mach := vmapi.NewMachine(vmapi.DefaultConfig())
	sys := uvm.BootConfig(mach, uvm.DefaultConfig())

	producer := mustProc(sys, "producer")
	va, err := producer.Mmap(0, msgPages*param.PageSize, param.ProtRW,
		vmapi.MapAnon|vmapi.MapPrivate, nil, 0)
	if err != nil {
		log.Fatal(err)
	}
	msg := []byte("a large message built in the producer's address space")
	if err := producer.WriteBytes(va, msg); err != nil {
		log.Fatal(err)
	}
	if err := producer.TouchRange(va, msgPages*param.PageSize, true); err != nil {
		log.Fatal(err)
	}

	// --- 1. classic pipe: copy out of producer, copy into consumer.
	consumer1 := mustProc(sys, "consumer-copy")
	t0 := mach.Clock.Now()
	buf := make([]byte, msgPages*param.PageSize)
	if err := producer.ReadBytes(va, buf); err != nil {
		log.Fatal(err)
	}
	dst, _ := consumer1.Mmap(0, msgPages*param.PageSize, param.ProtRW,
		vmapi.MapAnon|vmapi.MapPrivate, nil, 0)
	if err := consumer1.WriteBytes(dst, buf); err != nil {
		log.Fatal(err)
	}
	copyTime := mach.Clock.Since(t0)

	// --- 2. loanout + transfer: no bytes move.
	consumer2 := mustProc(sys, "consumer-loan")
	t1 := mach.Clock.Now()
	loaned, err := producer.Loanout(va, msgPages)
	if err != nil {
		log.Fatal(err)
	}
	rva, err := consumer2.Transfer(loaned, param.ProtRW)
	if err != nil {
		log.Fatal(err)
	}
	loanTime := mach.Clock.Since(t1)
	check := make([]byte, len(msg))
	consumer2.ReadBytes(rva, check)
	fmt.Printf("loan+transfer delivered: %q\n", check)

	// The consumer can write its copy without disturbing the producer.
	consumer2.WriteBytes(rva, []byte("CONSUMER-PRIVATE"))
	producer.ReadBytes(va, check)
	fmt.Printf("producer still sees:     %q\n\n", check)

	// --- 3. map entry passing: move the mapping itself.
	consumer3 := mustProc(sys, "consumer-mep")
	t2 := mach.Clock.Now()
	tok, err := producer.Export(va, msgPages*param.PageSize, uvm.ExportShare)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := consumer3.Import(tok); err != nil {
		log.Fatal(err)
	}
	mepTime := mach.Clock.Since(t2)

	fmt.Printf("moving a %d KB message (simulated time):\n", msgPages*4)
	fmt.Printf("  double copy:      %10v\n", copyTime)
	fmt.Printf("  loanout+transfer: %10v   (%.0f%% less)\n", loanTime,
		100*(1-float64(loanTime)/float64(copyTime)))
	fmt.Printf("  map entry pass:   %10v   (%.0f%% less)\n", mepTime,
		100*(1-float64(mepTime)/float64(copyTime)))
	fmt.Printf("\npages copied during the whole run: %d (copy path) — the VM paths moved none\n",
		mach.Stats.Get("vm.pages.copied"))
}

func mustProc(sys vmapi.System, name string) *uvm.Process {
	p, err := sys.NewProcess(name)
	if err != nil {
		log.Fatal(err)
	}
	return p.(*uvm.Process)
}
