// Package cliflags declares the deployment flags that optique-demo and
// optique-bench share, so both tools spell, default and document each
// setting the same way and fill the same optique.Config.
package cliflags

import (
	"flag"

	optique "repro"
	"repro/internal/cluster"
)

// Bind declares the shared deployment flags on fs and returns the
// config they fill once fs is parsed. Callers set only what their
// scenario fixes (node count, fault injector) on a copy of it.
func Bind(fs *flag.FlagSet) *optique.Config {
	cfg := &optique.Config{}
	fs.IntVar(&cfg.CheckpointEvery, "checkpoint-every", 0, "tuples between pulse-aligned checkpoints; > 0 checkpoints worker state and restores it across crashes and failover with exactly-once window delivery (0 = no checkpoints: restarted queries come back empty, migrated ones replay the dead node's queue)")
	fs.Int64Var(&cfg.Engine.MemBudget, "mem-budget", 0, "default per-task window-state byte budget; over-budget tasks degrade instead of exhausting memory (0 = off)")
	fs.IntVar(&cfg.TenantQuota.MaxQueries, "tenant-quota", 0, "max concurrently registered tasks per tenant namespace (0 = off)")
	fs.IntVar(&cfg.FlightRecorder, "flight-recorder", 256, "per-node flight-recorder ring capacity in events (0 = off)")
	fs.Func("transport", "node transport: channel (in-process, the default) or tcp (framed loopback sessions with failure detection)", func(s string) error {
		k, err := cluster.ParseTransport(s)
		cfg.Transport = k
		return err
	})
	fs.StringVar(&cfg.Listen, "listen", "", "bind address for -transport=tcp (default 127.0.0.1:0)")
	return cfg
}
