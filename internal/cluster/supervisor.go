// Worker supervision and query failover. Each node's run loop is
// wrapped in panic recovery: a crashed worker is restarted with a fresh
// engine (capped restarts, exponential backoff) and its queries are
// restored from the node's latest checkpoint, or from none. A node that
// exhausts its restart budget is declared dead; its queries migrate to
// surviving nodes, the stream routing tables are rebuilt, and tuples
// still queued on the corpse are salvaged into the migrated queries'
// replay feeds. Both paths are in recovery.go.
package cluster

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/exastream"
	"repro/internal/telemetry"
)

// NodeState is a worker's lifecycle state.
type NodeState int32

const (
	// NodeLive workers accept queries and process tuples.
	NodeLive NodeState = iota
	// NodeRestarting workers crashed and are being rebuilt; their queue
	// keeps accepting work, which is processed once the restart lands.
	NodeRestarting
	// NodeDead workers exhausted their restart budget; their queries
	// have failed over and tuples routed at them are dropped.
	NodeDead
)

func (s NodeState) String() string {
	switch s {
	case NodeRestarting:
		return "restarting"
	case NodeDead:
		return "dead"
	default:
		return "live"
	}
}

// FaultInjector hooks the worker loop for chaos testing (see
// internal/faults for the deterministic implementation). BeforeProcess
// runs on the worker goroutine before each tuple: returning an error
// simulates a failed ingest (the tuple is dropped and the error
// recorded), panicking simulates a worker crash (the supervisor takes
// over), and sleeping simulates a slow node (exercises backpressure).
type FaultInjector interface {
	BeforeProcess(node int, stream string) error
}

// CheckpointFaultInjector is an optional FaultInjector extension for
// recovery chaos: BeforeCheckpoint runs on the worker goroutine at the
// start of each checkpoint attempt (panicking simulates a crash during
// the checkpoint — the previous checkpoint stays authoritative), and
// TearCheckpoint reports whether this attempt's bytes should be
// corrupted mid-write (the torn-checkpoint injection; the store's
// verification catches it and falls back).
type CheckpointFaultInjector interface {
	BeforeCheckpoint(node int)
	TearCheckpoint(node int) bool
}

// EmitFaultInjector is an optional FaultInjector extension: AfterEmit
// runs right after a window is delivered through the emit gate and may
// panic — the crash-after-emit-before-ack injection point. The mark
// already advanced atomically with the delivery, so the replayed window
// is deduplicated, never re-delivered.
type EmitFaultInjector interface {
	AfterEmit(queryID string, windowEnd int64)
}

// GovernanceFaultInjector is an optional FaultInjector extension for
// resource-governance chaos: PressureFor adds synthetic bytes to a
// query's measured window-state usage (driving it over budget on
// demand), and TenantExhausted forces a tenant's quota admissions to
// fail with ErrTenantQuota.
type GovernanceFaultInjector interface {
	PressureFor(queryID string) int64
	TenantExhausted(tenant string) bool
}

const (
	defaultMaxRestarts    = 3
	defaultRestartBackoff = 5 * time.Millisecond
	maxRestartBackoff     = 500 * time.Millisecond
)

// maxRestarts resolves the configured restart cap: 0 means the default,
// negative means "no restarts" (first panic kills the node).
func (o Options) maxRestarts() int {
	if o.MaxRestarts == 0 {
		return defaultMaxRestarts
	}
	if o.MaxRestarts < 0 {
		return 0
	}
	return o.MaxRestarts
}

func (o Options) backoffFor(attempt int) time.Duration {
	d := o.RestartBackoff
	if d <= 0 {
		d = defaultRestartBackoff
	}
	for i := 1; i < attempt; i++ {
		d *= 2
		if d >= maxRestartBackoff {
			return maxRestartBackoff
		}
	}
	return d
}

// supervise is the worker goroutine: it runs the guarded loop and, on
// panic, either rebuilds the node or declares it dead and fails its
// queries over. The rebuild itself is also guarded: it restores the
// latest checkpoint, if any, and replays logged tuples, which
// re-executes windows and can re-hit injected faults — such a crash
// burns another restart from the same budget and the rebuild retries
// from the same checkpoint (the restore path is idempotent).
func (n *Node) supervise(c *Cluster) {
	defer n.wg.Done()
	for {
		if n.runGuarded(c) {
			return // inbox closed: clean shutdown
		}
		restarts, dead := n.crashed(c)
		if dead {
			return
		}
		// Retry the in-flight item on the rebuilt engine. A poison item
		// will re-panic until the budget is exhausted; its retry count
		// then tells failover not to salvage it.
		if cur := n.current; cur.flush != nil || cur.stream != "" || cur.restore != nil {
			cur.retries++
			n.current = work{}
			n.in.pushFront(cur)
		}
		for {
			time.Sleep(c.opts.backoffFor(restarts))
			alive, crashed := c.rebuildNodeGuarded(n)
			if crashed {
				if restarts, dead = n.crashed(c); dead {
					return
				}
				continue
			}
			if !alive {
				c.settle(-1)
				return // cluster closed while we slept
			}
			break
		}
		c.settle(-1)
	}
}

// crashed counts one crash of the node, in the worker loop or during a
// rebuild, and returns the node's restart count. Past the restart
// budget the node is declared dead and its queries fail over: dead is
// true and the worker goroutine must exit.
func (n *Node) crashed(c *Cluster) (restarts int, dead bool) {
	restarts = int(atomic.AddInt32(&n.restarts, 1))
	c.met.restarts.Inc()
	n.rec.Record(telemetry.EvRestart, "", "", 0, int64(restarts))
	if restarts <= c.opts.maxRestarts() {
		return restarts, false
	}
	c.failover(n)
	c.settle(-1)
	return restarts, true
}

// rebuildNodeGuarded runs restoreNode with panic containment: crashed
// reports a panic during the rebuild/restore/replay (another supervised
// crash), alive is false when the cluster closed.
func (c *Cluster) rebuildNodeGuarded(n *Node) (alive, crashed bool) {
	defer func() {
		if r := recover(); r != nil {
			crashed = true
			n.noteErr(NodeError{Node: n.ID, Err: fmt.Errorf("cluster: node %d: panic during rebuild: %v", n.ID, r)})
		}
	}()
	return c.restoreNode(n), false
}

// runGuarded processes inbox items until shutdown, converting panics
// into a supervised crash. It returns true on clean shutdown and false
// after recovering a panic.
func (n *Node) runGuarded(c *Cluster) (clean bool) {
	defer func() {
		if r := recover(); r != nil {
			atomic.StoreInt32(&n.state, int32(NodeRestarting))
			c.settle(1)
			n.noteErr(NodeError{Node: n.ID, Err: fmt.Errorf("cluster: node %d: worker panic: %v", n.ID, r)})
		}
	}()
	for {
		w, ok := n.in.pop()
		if !ok {
			return true
		}
		n.current = w
		n.process(c, w)
		n.current = work{}
	}
}

// process handles one work item on the worker goroutine.
func (n *Node) process(c *Cluster, w work) {
	if w.restore != nil {
		n.runRestore(c, w.restore)
		return
	}
	if w.flush != nil {
		w.flush <- n.engine.Flush()
		close(w.flush)
		if c.opts.CheckpointEvery > 0 {
			// The flush completed every open window: a free consistent
			// cut. The ack is already delivered, so clear the in-flight
			// slot first — a crash inside the checkpoint must not replay
			// the flush marker (its channel is closed).
			n.current = work{}
			n.checkpoint(c)
		}
		return
	}
	if f := c.opts.Faults; f != nil {
		if err := f.BeforeProcess(n.ID, w.stream); err != nil {
			n.noteErr(NodeError{Node: n.ID, Err: err})
			return
		}
	}
	if err := n.engine.IngestSeq(w.stream, w.el, w.seq); err != nil {
		n.noteErr(NodeError{Node: n.ID, Err: err})
	}
	atomic.AddInt64(&n.tuples, 1)
	if c.opts.CheckpointEvery > 0 {
		n.recordAndMaybeCheckpoint(c, w)
	}
}

// newEngineLocked builds a crashed node's fresh engine, with the
// cluster's streams and UDFs declared. The caller holds c.mu.
func (c *Cluster) newEngineLocked(n *Node) *exastream.Engine {
	eng := exastream.NewEngine(c.catalogFor(n.ID), c.engineOptsFor(n))
	for _, s := range c.schemas {
		if err := eng.DeclareStream(s); err != nil {
			n.noteErr(NodeError{Node: n.ID, Err: err})
		}
	}
	for name, f := range c.udfs {
		eng.RegisterUDF(name, f)
	}
	return eng
}

// settle tracks in-flight recoveries for WaitSettled.
func (c *Cluster) settle(delta int) {
	c.mu.Lock()
	c.recovering += delta
	c.mu.Unlock()
}

// WaitSettled blocks until no node is mid-recovery (restart or
// failover), so tests and drivers can observe a stable topology.
func (c *Cluster) WaitSettled(ctx context.Context) error {
	for {
		c.mu.Lock()
		settled := c.recovering == 0
		if settled {
			for _, n := range c.nodes {
				if NodeState(atomic.LoadInt32(&n.state)) == NodeRestarting {
					settled = false
					break
				}
			}
		}
		c.mu.Unlock()
		if settled {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(time.Millisecond):
		}
	}
}

// Health summarises the cluster's failure state.
type Health struct {
	Nodes       int
	Live        int
	Restarting  int
	Dead        int
	Restarts    int64 // total worker restarts across the cluster
	Failovers   int64 // nodes declared dead with queries migrated away
	Dropped     int64 // tuples routed at dead nodes
	Requeued    int64 // tuples salvaged from dead nodes and re-routed
	Suspended   int   // queries quarantined after repeated failures (currently suspended)
	Quarantines int64 // quarantine events since start (survives Resume)
	Errors      int64 // total asynchronous errors recorded
}

// Degraded reports whether the cluster is running below full strength.
func (h Health) Degraded() bool {
	return h.Dead > 0 || h.Restarting > 0 || h.Suspended > 0
}

// Health returns the cluster's current failure summary.
func (c *Cluster) Health() Health {
	c.mu.Lock()
	defer c.mu.Unlock()
	h := Health{Nodes: len(c.nodes), Failovers: c.met.failovers.Value()}
	for _, n := range c.nodes {
		switch NodeState(atomic.LoadInt32(&n.state)) {
		case NodeDead:
			h.Dead++
		case NodeRestarting:
			h.Restarting++
		default:
			h.Live++
		}
		h.Restarts += int64(atomic.LoadInt32(&n.restarts))
		h.Dropped += atomic.LoadInt64(&n.dropped)
		h.Requeued += atomic.LoadInt64(&n.requeued)
		h.Suspended += len(n.engine.SuspendedQueries())
		h.Quarantines += n.engine.Stats().Suspensions
		total, _ := n.errs.counts()
		h.Errors += total
	}
	return h
}

// Errors returns a copy of every node's retained recent errors.
func (c *Cluster) Errors() []NodeError {
	var out []NodeError
	for _, n := range c.nodes {
		out = append(out, n.errs.recent()...)
	}
	return out
}
