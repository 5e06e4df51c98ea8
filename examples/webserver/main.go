// Command webserver runs the paper's §4 motivating scenario. An Apache-style server
// transmits files by memory mapping them and touching every byte. When
// the working set exceeds BSD VM's 100-object cache, BSD VM falls to
// disk speed even though memory is free; UVM — whose file pages live and
// die with the vnode cache — keeps serving from memory (Figure 2).
//
//	go run ./examples/webserver
package main

import (
	"fmt"
	"log"

	"uvm/internal/bsdvm"
	"uvm/internal/uvm"
	"uvm/internal/vmapi"
	"uvm/internal/workload"
)

func main() {
	cfg := vmapi.MachineConfig{
		RAMPages:  96 << 20 >> 12, // plenty of RAM: the cache policy is the only limit
		SwapPages: 32768,
		FSPages:   65536,
		MaxVnodes: 2000,
	}
	if err := cfg.Validate(); err != nil {
		log.Fatal(err)
	}

	fmt.Println("Apache-style server, 64 KB files, two passes over the working set")
	fmt.Printf("%8s %16s %16s\n", "files", "BSD VM pass", "UVM pass")
	for _, nfiles := range []int{50, 100, 150, 250} {
		var times [2]string
		for i, boot := range []vmapi.Booter{bsdvm.Boot, uvm.Boot} {
			sys := boot(vmapi.NewMachine(cfg))
			srv, err := workload.NewFileServer(sys, nfiles, 16)
			if err != nil {
				log.Fatal(err)
			}
			if _, err := srv.ServeAll(); err != nil { // prime
				log.Fatal(err)
			}
			d, err := srv.ServeAll() // measure
			if err != nil {
				log.Fatal(err)
			}
			times[i] = d.String()
			srv.Close()
		}
		fmt.Printf("%8d %16s %16s\n", nfiles, times[0], times[1])
	}
	fmt.Println("\nBSD VM's wall appears at its 100-object cache limit; UVM stays flat")
	fmt.Println("because unreferenced vnodes keep their pages until the vnode cache")
	fmt.Println("itself needs to recycle them.")
}
