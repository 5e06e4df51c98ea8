package workload

import (
	"reflect"
	"testing"

	"uvm/internal/bsdvm"
	"uvm/internal/sim"
	"uvm/internal/uvm"
	"uvm/internal/vmapi"
)

// trafficTestConfig is a tiny shape that still exercises every op kind
// (file serve, anon mix, churn) and overcommits the tiny machine below.
func trafficTestConfig() TrafficConfig {
	return TrafficConfig{
		Tenants:        8,
		DatasetFiles:   64,
		FilePages:      4, // 256-page corpus vs 128-page RAM below
		ZipfS:          1.0,
		TouchPerOp:     4,
		AnonPages:      16, // 8 tenants × 16 = 128 anon pages alone
		AnonMixPercent: 25,
		ChurnEvery:     16,
		ChurnPages:     4,
		OpsPerWorker:   256,
		Seed:           1,
	}
}

// trafficTestMachine overcommits RAM with the config above. The vnode
// table must clear bsdvm's §4 object cache, which pins up to 100
// vnodes referenced (see TrafficConfig); 128 leaves room for the
// workers' concurrent opens.
func trafficTestMachine() vmapi.MachineConfig {
	return vmapi.MachineConfig{
		RAMPages:  128,
		SwapPages: 4096,
		FSPages:   1024,
		MaxVnodes: 128,
	}
}

func TestTrafficRunsOnBothSystems(t *testing.T) {
	cfg := trafficTestConfig()
	for _, sys := range []struct {
		name string
		boot vmapi.Booter
	}{{"uvm", uvm.Boot}, {"bsdvm", bsdvm.Boot}} {
		const workers = 2
		name, boot := sys.name, sys.boot
		// Traffic is a measured run: Drive shuts the system down and
		// reports a Busy page left behind as an error.
		res, err := Traffic(trafficTestMachine(), boot, cfg, workers)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if want := int64(workers * cfg.OpsPerWorker); res.Ops != want {
			t.Errorf("%s: ops = %d, want %d", name, res.Ops, want)
		}
		if res.Hist.Count() == 0 {
			t.Errorf("%s: histogram recorded nothing", name)
		}
		if res.Stats.Get(sim.CtrFaults) == 0 {
			t.Errorf("%s: no faults counted — the driver never touched memory?", name)
		}
		if res.Sim <= 0 {
			t.Errorf("%s: simulated time did not advance", name)
		}
		// The corpus is twice RAM and a quarter of ops dirty anon pages:
		// the run cannot fit without evicting.
		if got := res.Stats.Get(sim.CtrPageOuts); got == 0 {
			t.Errorf("%s: no pageouts — the test machine is not overcommitted", name)
		}
	}
}

// TestTrafficDeterministicSim pins that two runs with the same seed and
// one worker cost the same simulated time and move every counter by the
// same amount: the driver's randomness is all in the per-worker RNGs.
// (internal/experiments' TestCellsDeterministicSim holds the pressure,
// reclaimbw and objwb cells to the same bar — they cannot be imported
// from here.)
func TestTrafficDeterministicSim(t *testing.T) {
	cfg := trafficTestConfig()
	var runs [2]Result
	for i := range runs {
		var err error
		if runs[i], err = Traffic(trafficTestMachine(), uvmDeterministic, cfg, 1); err != nil {
			t.Fatal(err)
		}
	}
	if runs[0].Sim != runs[1].Sim || runs[0].Stats.Get(sim.CtrFaults) == 0 ||
		!reflect.DeepEqual(runs[0].Stats, runs[1].Stats) {
		t.Errorf("single-worker runs diverged: sim %d vs %d, counters\n%v\nvs\n%v",
			runs[0].Sim, runs[1].Sim, runs[0].Stats, runs[1].Stats)
	}
}

// uvmDeterministic boots uvm without the background machinery whose
// goroutine interleaving perturbs simulated time.
func uvmDeterministic(m *vmapi.Machine) vmapi.System {
	cfg := uvm.DefaultConfig()
	cfg.InlineReclaim = true
	return uvm.BootConfig(m, cfg)
}

func TestTrafficZipfSkew(t *testing.T) {
	// With s=1 over 64 files, rank 0 must be sampled far more often than
	// the median rank; with s=0 sampling is uniform. Also pins that the
	// sampler is deterministic for a fixed seed.
	const n, draws = 64, 20000
	counts := func(s float64, seed uint64) []int {
		z := newZipf(n, s)
		r := sim.NewRNG(seed)
		c := make([]int, n)
		for i := 0; i < draws; i++ {
			c[z.sample(r)]++
		}
		return c
	}
	skewed := counts(1.0, 7)
	if skewed[0] < 4*skewed[n/2] {
		t.Errorf("zipf(1.0): rank0 %d not ≫ median-rank %d", skewed[0], skewed[n/2])
	}
	uniform := counts(0, 7)
	want := draws / n
	if uniform[0] > 2*want || uniform[n-1] < want/2 {
		t.Errorf("zipf(0): not uniform: rank0 %d rankN %d want ~%d", uniform[0], uniform[n-1], want)
	}
	again := counts(1.0, 7)
	for i := range skewed {
		if skewed[i] != again[i] {
			t.Fatalf("zipf sampling not deterministic at rank %d: %d vs %d", i, skewed[i], again[i])
		}
	}
}

func TestTrafficConfigValidate(t *testing.T) {
	good := trafficTestConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	mutations := []func(*TrafficConfig){
		func(c *TrafficConfig) { c.Tenants = 0 },
		func(c *TrafficConfig) { c.DatasetFiles = -1 },
		func(c *TrafficConfig) { c.FilePages = 0 },
		func(c *TrafficConfig) { c.ZipfS = -0.5 },
		func(c *TrafficConfig) { c.TouchPerOp = 0 },
		func(c *TrafficConfig) { c.AnonPages = 0 },
		func(c *TrafficConfig) { c.AnonMixPercent = 101 },
		func(c *TrafficConfig) { c.ChurnEvery = -2 },
		func(c *TrafficConfig) { c.ChurnPages = 0 },
		func(c *TrafficConfig) { c.ChurnPages = c.AnonPages + 1 },
		func(c *TrafficConfig) { c.OpsPerWorker = 0 },
	}
	for i, mut := range mutations {
		c := good
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d: invalid config accepted: %+v", i, c)
		}
	}
	// Worker-count bounds are enforced at run time.
	if _, err := Traffic(trafficTestMachine(), uvm.Boot, good, 0); err == nil {
		t.Error("workers=0 accepted")
	}
	if _, err := Traffic(trafficTestMachine(), uvm.Boot, good, good.Tenants+1); err == nil {
		t.Error("workers > tenants accepted")
	}
}
