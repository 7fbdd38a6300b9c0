package recovery

import (
	"fmt"
	"time"

	"repro/internal/telemetry"
	"repro/internal/wire"
)

// Coordinator owns the cluster's recovery state: the checkpoint store,
// one replay log per node, the emit gate, and the recovery.* telemetry.
// It lives in the Cluster (outside any node's engine) so node death
// never takes it down.
type Coordinator struct {
	store *store
	logs  []*Log
	gate  *Gate

	checkpoints  *telemetry.Counter
	torn         *telemetry.Counter
	restores     *telemetry.Counter
	replayed     *telemetry.Counter
	lostCoverage *telemetry.Counter
	ckptBytes    *telemetry.Gauge
	ckptAgeMS    *telemetry.Gauge
	ckptNS       *telemetry.Histogram
}

// NewCoordinator builds recovery state for a cluster of the given size.
// logCap bounds each node's replay log (0 = DefaultLogCap). The
// registry receives the recovery.* metrics; nil gets a private one.
func NewCoordinator(nodes, logCap int, reg *telemetry.Registry) *Coordinator {
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	c := &Coordinator{
		store:        newStore(),
		logs:         make([]*Log, nodes),
		checkpoints:  reg.Counter("recovery.checkpoints"),
		torn:         reg.Counter("recovery.torn"),
		restores:     reg.Counter("recovery.restores"),
		replayed:     reg.Counter("recovery.replayed"),
		lostCoverage: reg.Counter("recovery.lost_coverage"),
		ckptBytes:    reg.Gauge("recovery.checkpoint.bytes"),
		ckptAgeMS:    reg.Gauge("recovery.checkpoint.age_ms"),
		ckptNS:       reg.Histogram("recovery.checkpoint.ns", telemetry.LatencyBuckets),
	}
	c.gate = NewGate(reg.Counter("recovery.deduped_windows"), reg.Counter("recovery.emitted_windows"))
	for i := range c.logs {
		c.logs[i] = NewLog(logCap)
	}
	return c
}

// Gate returns the cluster-wide exactly-once emit gate.
func (c *Coordinator) Gate() *Gate { return c.gate }

// Log returns a node's replay log.
func (c *Coordinator) Log(node int) *Log { return c.logs[node] }

// Save encodes and commits a node's checkpoint, then verifies the
// committed blob's frame — its length and checksum — the moral
// equivalent of an fsync-and-read-back. corrupt, when non-nil, mutates
// the encoded blob before the commit — the torn-checkpoint fault
// injection point. On verification failure the torn blob stays
// committed (Latest falls back to the previous checkpoint), recovery.torn
// counts it, and Save returns an error so the caller keeps its replay
// log intact. The payload is decoded only by Latest, at restore. The
// blob is encoded into the node's previous one, which this commit
// would drop: Save and Latest never overlap for one node, and Decode
// copies everything it keeps.
func (c *Coordinator) Save(node int, ck *Checkpoint, corrupt func([]byte) []byte) (int, error) {
	start := time.Now()
	blob := appendCheckpoint(c.store.recycle(node), ck)
	if corrupt != nil {
		blob = corrupt(blob)
	}
	prevAt := c.store.save(node, blob, ck.TakenAtMS)
	c.ckptNS.ObserveDuration(time.Since(start))
	c.ckptBytes.Set(float64(len(blob)))
	if prevAt > 0 && ck.TakenAtMS >= prevAt {
		// Age of the checkpoint being superseded: how stale a restore
		// would have been just before this cut.
		c.ckptAgeMS.Set(float64(ck.TakenAtMS - prevAt))
	}
	if _, err := wire.Check(blob); err != nil {
		c.torn.Inc()
		return len(blob), fmt.Errorf("recovery: node %d checkpoint failed verification: %w", node, err)
	}
	c.checkpoints.Inc()
	return len(blob), nil
}

// Latest returns the newest decodable checkpoint for a node (nil when
// none), counting a torn-fallback when the current blob was unreadable.
func (c *Coordinator) Latest(node int) *Checkpoint {
	ck, torn := c.store.latest(node)
	if torn {
		c.torn.Inc()
	}
	return ck
}

// NoteRestore counts one completed checkpoint restore (restart or
// failover target).
func (c *Coordinator) NoteRestore() { c.restores.Inc() }

// NoteReplayed counts tuples re-fed from replay logs/salvage.
func (c *Coordinator) NoteReplayed(n int) { c.replayed.Add(int64(n)) }

// NoteLostCoverage counts a restore whose replay log had shed uncovered
// tuples, so windows spanning the gap may be incomplete.
func (c *Coordinator) NoteLostCoverage() { c.lostCoverage.Inc() }
