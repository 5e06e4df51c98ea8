// Command shmipc demonstrates System V shared memory (shmget/shmat/shmdt) — one of the §5
// consumers of anonymous memory — used for a producer/consumer ring
// buffer between two processes, on both VM systems.
//
//	go run ./examples/shmipc
package main

import (
	"fmt"
	"log"

	"uvm/internal/bsdvm"
	"uvm/internal/param"
	"uvm/internal/sysv"
	"uvm/internal/uvm"
	"uvm/internal/vmapi"
)

const (
	ringPages = 4
	messages  = 64
)

func main() {
	cfg := vmapi.DefaultConfig()
	for _, boot := range []vmapi.Booter{bsdvm.Boot, uvm.Boot} {
		mach := vmapi.NewMachine(cfg)
		sys := boot(mach)
		shm := sysv.NewRegistry(sys)

		id, err := shm.Shmget(0x1234, ringPages*param.PageSize, sysv.IPCCreat|sysv.IPCExcl)
		if err != nil {
			log.Fatal(err)
		}
		producer, _ := sys.NewProcess("producer")
		consumer, _ := sys.NewProcess("consumer")
		pva, err := shm.Shmat(producer, id, param.ProtRW)
		if err != nil {
			log.Fatal(err)
		}
		cva, err := shm.Shmat(consumer, id, param.ProtRW)
		if err != nil {
			log.Fatal(err)
		}

		// A trivial ring: slot i at offset i*64; producer writes, consumer
		// reads and verifies. (The simulation is synchronous, so no
		// real synchronisation is needed — the point is the shared pages.)
		delivered := 0
		for i := 0; i < messages; i++ {
			off := param.VAddr((i * 64) % (ringPages * param.PageSize))
			msg := []byte(fmt.Sprintf("msg-%02d", i))
			if err := producer.WriteBytes(pva+off, msg); err != nil {
				log.Fatal(err)
			}
			got := make([]byte, len(msg))
			if err := consumer.ReadBytes(cva+off, got); err != nil {
				log.Fatal(err)
			}
			if string(got) == string(msg) {
				delivered++
			}
		}

		fmt.Printf("%s: delivered %d/%d messages through a %d KB SysV shm ring\n",
			sys.Name(), delivered, messages, ringPages*4)
		fmt.Printf("  pages copied: %d (shared mapping: data never copied)\n",
			mach.Stats.Get("vm.pages.copied"))

		// Cleanup: RMID + detach destroys the segment.
		if err := shm.Shmrm(id); err != nil {
			log.Fatal(err)
		}
		shm.Shmdt(producer, pva)
		shm.Shmdt(consumer, cva)
		fmt.Printf("  segments remaining after RMID+detach: %d\n\n", shm.Segments())
	}
}
