package difftest

import (
	"fmt"
	"sync"
	"testing"

	"uvm/internal/param"
	"uvm/internal/sim"
	"uvm/internal/uvm"
	"uvm/internal/vmapi"
)

// Race-targeted stress tests for the fine-grained locking in
// internal/uvm. Where concurrency_test.go drives the common vmapi
// surface on both systems, these tests aim at the UVM-only paths the
// big-lock removal opened up — concurrent faults, loanouts, transfers
// and pageout — and verify final memory *contents*, not just absence of
// errors. Run with -race.

// TestConcurrentFaultLoanTransferDisjoint runs N goroutines, each owning
// a disjoint process, through a mixed fault/loan/transfer workload, and
// verifies every byte each goroutine wrote is intact at the end.
func TestConcurrentFaultLoanTransferDisjoint(t *testing.T) {
	mach := vmapi.NewMachine(vmapi.MachineConfig{
		RAMPages: 8192, SwapPages: 32768, FSPages: 4096, MaxVnodes: 64,
	})
	sys := uvm.BootConfig(mach, uvm.DefaultConfig())

	const (
		workers = 8
		pages   = 24
		rounds  = 60
	)
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := sim.NewRNG(uint64(w)*7919 + 17)
			p, err := sys.NewProcess(fmt.Sprintf("stress%d", w))
			if err != nil {
				errs <- err
				return
			}
			up := p.(*uvm.Process)
			va, err := up.Mmap(0, pages*param.PageSize, param.ProtRW,
				vmapi.MapAnon|vmapi.MapPrivate, nil, 0)
			if err != nil {
				errs <- err
				return
			}
			// shadow mirrors what this goroutine believes its memory holds.
			shadow := make([]byte, pages)
			for r := 0; r < rounds; r++ {
				pg := rng.Intn(pages)
				addr := va + param.VAddr(pg)*param.PageSize
				switch rng.Intn(5) {
				case 0, 1: // plain write fault
					v := byte(rng.Intn(256))
					if err := up.WriteBytes(addr, []byte{v}); err != nil {
						errs <- fmt.Errorf("w%d write: %w", w, err)
						return
					}
					shadow[pg] = v
				case 2: // loanout + return: contents must be stable meanwhile
					loan, err := up.Loanout(addr, 1)
					if err != nil {
						errs <- fmt.Errorf("w%d loanout: %w", w, err)
						return
					}
					if got := loan[0].Data()[0]; got != shadow[pg] {
						errs <- fmt.Errorf("w%d loaned page byte = %#x, want %#x", w, got, shadow[pg])
						return
					}
					up.LoanReturn(loan)
				case 3: // kernel-page transfer into our space
					v := byte(rng.Intn(256))
					kp, err := sys.AllocKernelPages(1, func(_ int, buf []byte) { buf[0] = v })
					if err != nil {
						errs <- fmt.Errorf("w%d alloc kernel: %w", w, err)
						return
					}
					tva, err := up.Transfer(kp, param.ProtRW)
					if err != nil {
						errs <- fmt.Errorf("w%d transfer: %w", w, err)
						return
					}
					b := make([]byte, 1)
					if err := up.ReadBytes(tva, b); err != nil {
						errs <- fmt.Errorf("w%d read transferred: %w", w, err)
						return
					}
					if b[0] != v {
						errs <- fmt.Errorf("w%d transferred byte = %#x, want %#x", w, b[0], v)
						return
					}
					if err := up.Munmap(tva, param.PageSize); err != nil {
						errs <- fmt.Errorf("w%d unmap transferred: %w", w, err)
						return
					}
				case 4: // fork + child COW write must not disturb the parent
					ci, err := up.Fork(fmt.Sprintf("stress%dc", w))
					if err != nil {
						errs <- fmt.Errorf("w%d fork: %w", w, err)
						return
					}
					if err := ci.(*uvm.Process).WriteBytes(addr, []byte{0xFF}); err != nil {
						errs <- fmt.Errorf("w%d child write: %w", w, err)
						return
					}
					ci.Exit()
				}
			}
			// Final verification: every page matches the shadow.
			b := make([]byte, 1)
			for pg := 0; pg < pages; pg++ {
				if err := up.ReadBytes(va+param.VAddr(pg)*param.PageSize, b); err != nil {
					errs <- fmt.Errorf("w%d final read %d: %w", w, pg, err)
					return
				}
				if b[0] != shadow[pg] {
					errs <- fmt.Errorf("w%d page %d = %#x, want %#x", w, pg, b[0], shadow[pg])
					return
				}
			}
			up.Exit()
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := mach.Swap.SlotsInUse(); got != 0 {
		t.Errorf("swap leak after stress: %d slots", got)
	}
}

// TestLoanoutVersusPagedaemon races Loanout/LoanReturn against heavy
// memory pressure: a hog process forces continuous pageout while loaner
// goroutines loan their pages out and verify the loaned contents. The
// pagedaemon must never evict a loaned page, and loans must never see
// stale or freed frames.
func TestLoanoutVersusPagedaemon(t *testing.T) {
	mach := vmapi.NewMachine(vmapi.MachineConfig{
		RAMPages: 1024, SwapPages: 32768, FSPages: 1024, MaxVnodes: 16,
	})
	sys := uvm.BootConfig(mach, uvm.DefaultConfig())

	const (
		loaners    = 4
		loanPages  = 8
		iterations = 40
	)
	var loanWG, hogWG sync.WaitGroup
	errs := make(chan error, loaners+1)

	// The hog: repeatedly touches twice RAM of anonymous memory, keeping
	// the pagedaemon busy evicting.
	stop := make(chan struct{})
	hogWG.Add(1)
	go func() {
		defer hogWG.Done()
		hog, err := sys.NewProcess("hog")
		if err != nil {
			errs <- err
			return
		}
		defer hog.Exit()
		const hogPages = 2048
		va, err := hog.Mmap(0, hogPages*param.PageSize, param.ProtRW,
			vmapi.MapAnon|vmapi.MapPrivate, nil, 0)
		if err != nil {
			errs <- err
			return
		}
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := hog.TouchRange(va, hogPages*param.PageSize, true); err != nil {
				errs <- fmt.Errorf("hog: %w", err)
				return
			}
		}
	}()

	for w := 0; w < loaners; w++ {
		loanWG.Add(1)
		go func(w int) {
			defer loanWG.Done()
			p, err := sys.NewProcess(fmt.Sprintf("loaner%d", w))
			if err != nil {
				errs <- err
				return
			}
			up := p.(*uvm.Process)
			defer up.Exit()
			va, err := up.Mmap(0, loanPages*param.PageSize, param.ProtRW,
				vmapi.MapAnon|vmapi.MapPrivate, nil, 0)
			if err != nil {
				errs <- err
				return
			}
			for i := 0; i < loanPages; i++ {
				if err := up.WriteBytes(va+param.VAddr(i)*param.PageSize,
					[]byte{byte(0x40 + w), byte(i)}); err != nil {
					errs <- err
					return
				}
			}
			for it := 0; it < iterations; it++ {
				loan, err := up.Loanout(va, loanPages)
				if err != nil {
					errs <- fmt.Errorf("loaner%d it%d: %w", w, it, err)
					return
				}
				// While on loan, the pagedaemon must leave the frames
				// alone: the borrower's view stays byte-stable.
				for i, pg := range loan {
					if pg.Data()[0] != byte(0x40+w) || pg.Data()[1] != byte(i) {
						errs <- fmt.Errorf("loaner%d it%d page %d: borrowed view corrupted: %#x %#x",
							w, it, i, pg.Data()[0], pg.Data()[1])
						return
					}
				}
				// Owner writes one loaned page: COW must give the owner a
				// private copy without disturbing the borrower.
				victim := it % loanPages
				if err := up.WriteBytes(va+param.VAddr(victim)*param.PageSize,
					[]byte{byte(0x40 + w), byte(victim)}); err != nil {
					errs <- fmt.Errorf("loaner%d it%d cow write: %w", w, it, err)
					return
				}
				for i, pg := range loan {
					if pg.Data()[0] != byte(0x40+w) || pg.Data()[1] != byte(i) {
						errs <- fmt.Errorf("loaner%d it%d page %d: borrower disturbed by owner write",
							w, it, i)
						return
					}
				}
				up.LoanReturn(loan)
			}
		}(w)
	}

	// Wait for the loaners, then stop the hog.
	loanWG.Wait()
	close(stop)
	hogWG.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
