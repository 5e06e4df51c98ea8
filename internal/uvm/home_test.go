package uvm

import (
	"fmt"
	"sync"
	"testing"

	"uvm/internal/param"
	"uvm/internal/sim"
	"uvm/internal/vmapi"
)

// TestAnonFramesStayHome: two processes created back to back get
// different home shards, and every anonymous frame either one zero-fills
// or copies on write comes from its home — also the copies made after a
// fork, by the parent and by the child, which inherits the parent's home.
// The two process trees fault concurrently.
func TestAnonFramesStayHome(t *testing.T) {
	const (
		pages  = 32
		length = pages * param.PageSize
		half   = length / 2
	)
	s, m := bootTest(t, 4096) // 256 frames a shard: no home runs dry
	procs := []*Process{newProc(t, s, "a"), newProc(t, s, "b")}
	if procs[0].m.home == procs[1].m.home {
		t.Fatalf("processes created back to back share home shard %d", procs[0].m.home)
	}
	copies := m.Stats.Get(sim.CtrPagesCopied)

	// inHome checks that every page of [va, va+n) is mapped by p to a
	// frame of shard home.
	inHome := func(p *Process, va param.VAddr, n param.VSize, home uint8, what string) error {
		for off := param.VAddr(0); off < param.VAddr(n); off += param.PageSize {
			pte, ok := p.pm.Lookup(va + off)
			if !ok {
				return fmt.Errorf("%s: %s page %#x not mapped", p.name, what, va+off)
			}
			if got := pte.Page.Shard(); got != int(home) {
				return fmt.Errorf("%s: %s page %#x in shard %d, want home %d", p.name, what, va+off, got, home)
			}
		}
		return nil
	}
	tree := func(p *Process) error {
		va, err := p.Mmap(0, length, param.ProtRW, vmapi.MapAnon|vmapi.MapPrivate, nil, 0)
		if err != nil {
			return err
		}
		if err := p.TouchRange(va, length, true); err != nil {
			return err
		}
		if err := inHome(p, va, length, p.m.home, "zero-filled"); err != nil {
			return err
		}
		cp, err := p.Fork(p.name + "-child")
		if err != nil {
			return err
		}
		child := cp.(*Process)
		defer child.Exit()
		if child.m.home != p.m.home {
			return fmt.Errorf("%s: child home %d, want the parent's %d", p.name, child.m.home, p.m.home)
		}
		// The parent copies the first half, the child the second: each
		// writes pages whose anons the other still shares.
		if err := p.TouchRange(va, half, true); err != nil {
			return err
		}
		if err := child.TouchRange(va+half, half, true); err != nil {
			return err
		}
		if err := inHome(p, va, half, p.m.home, "parent COW-copied"); err != nil {
			return err
		}
		return inHome(child, va+half, half, p.m.home, "child COW-copied")
	}

	errs := make([]error, len(procs))
	var wg sync.WaitGroup
	for i, p := range procs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = tree(p)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
	if got := m.Stats.Get(sim.CtrPagesCopied) - copies; got != 2*pages {
		t.Errorf("%d pages copied on write, want %d", got, 2*pages)
	}
}
