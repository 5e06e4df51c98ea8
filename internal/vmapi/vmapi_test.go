package vmapi

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"uvm/internal/disk"
	"uvm/internal/param"
	"uvm/internal/sim"
)

func TestMapFlagsValid(t *testing.T) {
	valid := []MapFlags{
		MapAnon | MapPrivate,
		MapAnon | MapShared,
		MapPrivate,
		MapShared,
		MapShared | MapFixed,
	}
	for _, f := range valid {
		if !f.Valid() {
			t.Errorf("flags %b should be valid", f)
		}
	}
	invalid := []MapFlags{
		0,
		MapAnon,
		MapPrivate | MapShared,
		MapAnon | MapPrivate | MapShared,
		MapFixed,
	}
	for _, f := range invalid {
		if f.Valid() {
			t.Errorf("flags %b should be invalid", f)
		}
	}
}

func TestDefaultConfigMatchesPaperTestbed(t *testing.T) {
	cfg := DefaultConfig()
	if got := cfg.RAMPages << param.PageShift; got != 32<<20 {
		t.Errorf("RAM = %d bytes, paper testbed has 32 MB", got)
	}
	if cfg.SwapPages <= int64(cfg.RAMPages>>1) {
		t.Errorf("swap should comfortably exceed RAM")
	}
	if cfg.MaxVnodes <= 100 {
		t.Errorf("vnode table (%d) must exceed BSD VM's 100-object cache for Figure 2 to be meaningful", cfg.MaxVnodes)
	}
}

func TestNewMachine(t *testing.T) {
	m := NewMachine(MachineConfig{RAMPages: 64, SwapPages: 128, FSPages: 256, MaxVnodes: 10})
	if m.Mem.TotalPages() != 64 {
		t.Errorf("RAM pages = %d", m.Mem.TotalPages())
	}
	if m.Swap.Slots() != 128 {
		t.Errorf("swap slots = %d", m.Swap.Slots())
	}
	if m.FSDisk.Blocks() != 256 {
		t.Errorf("fs blocks = %d", m.FSDisk.Blocks())
	}
	if m.Clock == nil || m.Costs == nil || m.Stats == nil || m.MMU == nil || m.FS == nil {
		t.Error("incomplete machine")
	}
	if m.Clock.Now() != 0 {
		t.Errorf("machine boots at t=%v", m.Clock.Now())
	}
}

func TestValidateNamesTheBadField(t *testing.T) {
	good := MachineConfig{RAMPages: 64, SwapPages: 128, FSPages: 256, MaxVnodes: 10}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	cases := []struct {
		mutate func(*MachineConfig)
		want   string
	}{
		{func(c *MachineConfig) { c.RAMPages = 0 }, "RAMPages"},
		{func(c *MachineConfig) { c.RAMPages = -3 }, "RAMPages"},
		{func(c *MachineConfig) { c.SwapPages = 0 }, "SwapPages"},
		{func(c *MachineConfig) { c.FSPages = -1 }, "FSPages"},
		{func(c *MachineConfig) { c.MaxVnodes = 0 }, "MaxVnodes"},
		{func(c *MachineConfig) { c.AllocCaches = -1 }, "AllocCaches"},
		{func(c *MachineConfig) { c.Profile = "floppy" }, "Profile"},
	}
	for _, tc := range cases {
		cfg := good
		tc.mutate(&cfg)
		err := cfg.Validate()
		if err == nil {
			t.Errorf("config with bad %s accepted", tc.want)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("error %q does not name field %s", err, tc.want)
		}
	}

	// The zero config — the panic-deep-in-disk.New case — must be caught
	// up front with a field name, not a disk panic.
	var zero MachineConfig
	if err := zero.Validate(); err == nil {
		t.Fatal("zero config accepted")
	}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("NewMachine(zero) did not panic")
		}
		if !strings.Contains(fmt.Sprint(r), "RAMPages") {
			t.Fatalf("NewMachine panic %q does not name the field", r)
		}
	}()
	NewMachine(zero)
}

func TestProfileConfigPresets(t *testing.T) {
	def, err := ProfileConfig("")
	if err != nil {
		t.Fatal(err)
	}
	if def != DefaultConfig() {
		t.Errorf("empty profile preset differs from DefaultConfig")
	}
	hdd, err := ProfileConfig(sim.DefaultProfile)
	if err != nil {
		t.Fatal(err)
	}
	hdd.Profile = ""
	if hdd != DefaultConfig() {
		t.Errorf("hdd97 sizes differ from the paper testbed")
	}
	for _, name := range sim.Profiles() {
		cfg, err := ProfileConfig(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("%s preset invalid: %v", name, err)
		}
		if cfg.Profile != name {
			t.Fatalf("%s preset carries profile %q", name, cfg.Profile)
		}
	}
	if _, err := ProfileConfig("floppy"); err == nil {
		t.Fatal("unknown profile accepted")
	}
}

func TestProfileChangesCosts(t *testing.T) {
	cfg, err := ProfileConfig("ramdisk")
	if err != nil {
		t.Fatal(err)
	}
	m := NewMachine(cfg)
	if m.Costs.DiskSeek != 0 {
		t.Errorf("ramdisk machine has seek cost %v", m.Costs.DiskSeek)
	}
	def := NewMachine(DefaultConfig())
	if def.Costs.DiskSeek != sim.DefaultCosts().DiskSeek {
		t.Errorf("default machine costs changed: seek %v", def.Costs.DiskSeek)
	}
}

func TestFaultPlansInstalledAtBoot(t *testing.T) {
	cfg := MachineConfig{RAMPages: 64, SwapPages: 128, FSPages: 256, MaxVnodes: 10,
		SwapFaultPlan: disk.NewFaultPlan(disk.FaultRule{Kind: disk.FaultWriteError, Block: disk.BlockAny}),
		FSFaultPlan:   disk.NewFaultPlan(disk.FaultRule{Kind: disk.FaultReadError, Block: disk.BlockAny}),
	}
	m := NewMachine(cfg)
	buf := make([]byte, param.PageSize)
	if err := m.SwapDisk.WritePages(0, [][]byte{buf}); !errors.Is(err, disk.ErrInjected) {
		t.Fatalf("swap plan not installed: %v", err)
	}
	if err := m.FSDisk.ReadPages(0, [][]byte{buf}); !errors.Is(err, disk.ErrInjected) {
		t.Fatalf("fs plan not installed: %v", err)
	}
}
