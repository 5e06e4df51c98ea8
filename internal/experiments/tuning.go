package experiments

import (
	"uvm/internal/uvm"
	"uvm/internal/vmapi"
)

// The named tunings of UVM's I/O pipelines — the axis reclaimbw, objwb,
// traffic and the matrix cells all vary. uvm.DefaultConfig() is the
// synchronous one: one pagedaemon that blocks on every cluster write,
// Msync writing its clusters on the caller's clock. The three below are
// the pipelines at window w, so "the full pipeline" means the same thing
// everywhere; an experiment's intermediate stage is an edit of one of
// them.

// reclaimPipeline is the full reclaim pipeline at pageout window w:
// async clustered pageout, four parallel reclaim workers, clustered
// pagein.
func reclaimPipeline(w int) uvm.Config {
	cfg := uvm.DefaultConfig()
	cfg.AsyncPageout = true
	cfg.PageoutWindow = w
	cfg.ReclaimWorkers = 4
	cfg.PageinCluster = 8
	return cfg
}

// writebackPipeline is the full object-writeback pipeline at window w:
// async, 16-page clusters.
func writebackPipeline(w int) uvm.Config {
	cfg := uvm.DefaultConfig()
	cfg.AsyncWriteback = true
	cfg.WritebackWindow = w
	cfg.WritebackCluster = 16
	return cfg
}

// fullPipeline is both pipelines at window w — the configuration every
// earlier experiment showed winning, and the one traffic runs uvm with.
func fullPipeline(w int) uvm.Config {
	cfg := reclaimPipeline(w)
	cfg.AsyncWriteback = true
	cfg.WritebackWindow = w
	cfg.WritebackCluster = 16
	return cfg
}

// tuned is uvm booted with cfg, under its report name.
func tuned(name string, cfg uvm.Config) NamedBooter {
	return NamedBooter{name, func(m *vmapi.Machine) vmapi.System { return uvm.BootConfig(m, cfg) }}
}
