// Checkpoint/restore glue between the supervisor and the recovery
// coordinator. Every crash recovers by restore-and-replay: a rebuilt or
// failed-over query resumes from the latest checkpoint and re-feeds the
// logged and salvaged tuples, idempotent via the restored window
// operators' sequence cursors. With Options.CheckpointEvery > 0 each
// worker cuts pulse-aligned checkpoints of its engine state and keeps
// its replay log current, and the emit gate delivers each window
// exactly once. Without checkpoints the same path restores from no
// cut: a restart's queries come back empty, and a failover's feed is
// the dead node's queue.
package cluster

import (
	"fmt"
	"slices"
	"sync/atomic"
	"time"

	"repro/internal/exastream"
	"repro/internal/recovery"
	"repro/internal/stream"
	"repro/internal/telemetry"
)

// restoreJob migrates queries onto a node via its own worker goroutine:
// it is pushed to the front of the target's inbox so the restore runs
// before any queued tuple. The job carries only identities — the state
// to restore from (checkpoint, cursors, replay feed) lives on the query
// records under Cluster.mu, so a crash mid-restore or a second failover
// never loses the state source.
type restoreJob struct {
	ids []string
	// settled guards the job's single settle(-1): a crash inside
	// runRestore retries the job on the rebuilt worker, and a second
	// decrement would drive Cluster.recovering negative and wedge
	// WaitSettled forever.
	settled bool
}

// tearBlob is the torn-checkpoint corruption: the blob is cut in half,
// as if the writer died mid-write. Decode rejects it and the store falls
// back to the previous checkpoint.
func tearBlob(b []byte) []byte { return b[:len(b)/2] }

// recordAndMaybeCheckpoint runs on the worker goroutine after each
// successfully processed tuple: it advances the node's ingest cursors,
// appends the tuple to the replay log, and cuts a checkpoint when due.
// A cut prefers a pulse boundary (the engine executed windows this tick,
// so no window is mid-build) but is forced once 4x overdue. A replay log
// near capacity forces a cut whatever the cadence: waiting any longer
// would trade bounded staleness for lost coverage, so a CheckpointEvery
// larger than three-quarters of ReplayLogCap still never sheds a tuple
// that no checkpoint covers.
func (n *Node) recordAndMaybeCheckpoint(c *Cluster, w work) {
	key := lowerKey(w.stream)
	if n.cursors == nil {
		n.cursors = make(map[string]int64)
	}
	if w.seq > n.cursors[key] {
		n.cursors[key] = w.seq
	}
	nearCap := c.rec.Log(n.ID).Append(recovery.Tuple{Stream: key, Seq: w.seq, TS: w.el.TS, Row: w.el.Row})
	// From here the log owns the tuple: a crash during the checkpoint
	// below must replay it from the log, not requeue it (a requeue would
	// double-feed any shared window).
	n.current = work{}
	n.sinceCkpt++
	wins := n.engine.Stats().WindowsExecuted
	aligned := wins != n.lastWins
	n.lastWins = wins
	every := c.opts.CheckpointEvery
	if nearCap || (n.sinceCkpt >= every && (aligned || n.sinceCkpt >= 4*every)) {
		n.checkpoint(c)
	}
}

// checkpoint cuts and commits one consistent snapshot of the node's
// engine state, reporting whether the commit succeeded. It runs on the
// worker goroutine between work items, so the engine is quiescent
// (Ingest is synchronous). A failed verification (torn write) keeps the
// replay log intact: the previous checkpoint remains the cut and the
// log still covers everything after it.
func (n *Node) checkpoint(c *Cluster) bool {
	f, _ := c.opts.Faults.(CheckpointFaultInjector)
	if f != nil {
		f.BeforeCheckpoint(n.ID) // may panic: crash during checkpoint
	}
	st := n.engine.ExportState()
	cursors := make(map[string]int64, len(n.cursors))
	for k, v := range n.cursors {
		cursors[k] = v
	}
	ck := &recovery.Checkpoint{
		Node:      n.ID,
		TakenAtMS: time.Now().UnixMilli(),
		Cursors:   cursors,
		EmitHWM:   c.rec.Gate().SnapshotHWM(),
		Engine:    *st,
	}
	var corrupt func([]byte) []byte
	if f != nil && f.TearCheckpoint(n.ID) {
		corrupt = tearBlob
	}
	covered := int64(n.sinceCkpt)
	n.sinceCkpt = 0
	if _, err := c.rec.Save(n.ID, ck, corrupt); err != nil {
		n.noteErr(NodeError{Node: n.ID, Err: err})
		return false
	}
	c.rec.Log(n.ID).TruncateThrough(cursors)
	n.rec.Record(telemetry.EvCheckpoint, "", "", 0, covered)
	return true
}

// restoreNode is the worker rebuild: the node's queries are restored,
// as one group, from the node's latest checkpoint (empty when there is
// none), and the replay log is re-fed through their operators once (see
// restoreLocked). Returns false when the cluster closed.
func (c *Cluster) restoreNode(n *Node) bool {
	// Decode the checkpoint before taking the cluster lock, so ingest
	// routing and registration do not wait for it. No Save for this node
	// can land in between: only the node's own worker goroutine
	// checkpoints it, and that goroutine is the one restoring it here.
	ck := c.rec.Latest(n.ID)
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return false
	}
	cursors := make(map[string]int64)
	if ck != nil {
		for k, v := range ck.Cursors {
			cursors[k] = v
		}
	}
	ownLog := c.rec.Log(n.ID)
	if !ownLog.Covered(cursors) {
		c.rec.NoteLostCoverage()
	}
	eng := c.newEngineLocked(n)
	var recs []*queryRecord
	for _, rec := range c.queries {
		// pendingRestore queries are seeded by their queued restore job
		// (which holds a different cut); registering them empty here
		// would emit wrong-content windows that advance the gate mark
		// past the real ones.
		if rec.node == n.ID && !rec.pendingRestore {
			recs = append(recs, rec)
		}
	}
	n.engine = eng
	n.cursors = cursors
	r, restored := c.restoreLocked(n, ck.State(), cursors, recs)
	n.rec.Record(telemetry.EvRestore, "", "", 0, int64(len(restored)))
	c.mu.Unlock()

	// Replay outside the cluster lock: only this worker's goroutine
	// touches the fresh engine, and the inbox buffers concurrent ingest
	// until the node goes live again.
	n.replay(c, r, ownLog.Since(cursors))
	if len(restored) > 0 {
		c.rec.NoteRestore()
	}
	n.sinceCkpt = ownLog.Len()
	n.lastWins = eng.Stats().WindowsExecuted
	atomic.StoreInt32(&n.state, int32(NodeLive))
	return true
}

// restoreLocked restores recs onto the node's engine from one cut —
// the checkpointed state es (nil when the cut predates them) and the
// cut's per-stream cursors — and returns the restore, whose replay
// follows once the cluster lock is released (see replay), and the
// records restored. Every query of the cut is restored before replay
// pushes a tuple, so each checkpointed operator comes back once for
// all its readers and advances once. A query that cannot be restored
// is dropped from the cluster. The caller holds c.mu.
func (c *Cluster) restoreLocked(n *Node, es *recovery.EngineState, cursors map[string]int64, recs []*queryRecord) (*exastream.Restore, []*queryRecord) {
	r := n.engine.Restore(es, cursors)
	restored := recs[:0:0]
	for _, rec := range recs {
		if err := r.Query(rec.id, rec.stmt, rec.pulse, rec.sink); err != nil {
			n.noteErr(NodeError{Node: n.ID, QueryID: rec.id,
				Err: fmt.Errorf("cluster: node %d: restore %s: %w", n.ID, rec.id, err)})
			delete(c.queries, rec.id)
			atomic.AddInt32(&n.queries, -1)
			n.budgetUsed -= rec.budget
			c.gov.releaseQuery(rec.tenant)
			c.rebuildHostsLocked()
			continue
		}
		if rec.budget > 0 {
			// The admitted budget survives even when the checkpoint predates
			// it.
			_ = n.engine.SetQueryBudget(rec.id, rec.budget)
		}
		restored = append(restored, rec)
	}
	return r, restored
}

// replay pushes a restore's feed through its operators, each tuple once,
// advances the node cursors past the feed so the next cut records it (a
// failover feed's tuples are not in this node's log, and a stale cursor
// would make a later restore report the gap as lost coverage), and ends
// the restore.
func (n *Node) replay(c *Cluster, r *exastream.Restore, feed []recovery.Tuple) {
	if n.cursors == nil {
		n.cursors = make(map[string]int64)
	}
	for _, t := range feed {
		if err := r.Replay(t.Stream, stream.Timestamped{TS: t.TS, Row: t.Row}, t.Seq); err != nil {
			n.noteErr(NodeError{Node: n.ID, Err: err})
		}
		if t.Seq > n.cursors[t.Stream] {
			n.cursors[t.Stream] = t.Seq
		}
	}
	if len(feed) > 0 {
		c.rec.NoteReplayed(len(feed))
	}
	r.Done()
}

// failover declares a node dead and migrates its queries to survivors,
// carrying the victim's latest checkpoint (none without checkpoints)
// and a replay feed of victim-logged plus salvaged tuples; a restoreJob
// per target seeds them on the target's own worker goroutine. The whole
// migration — including pushing the jobs — happens under the cluster
// lock so no tuple can be routed into the gap between the death and the
// restore job reaching the head of each target's queue.
func (c *Cluster) failover(n *Node) {
	c.met.failovers.Inc()
	c.frec.Record(telemetry.EvFailover, "", "", 0, int64(n.ID))
	// Decode the victim's checkpoint before taking the cluster lock, so
	// ingest routing and registration do not wait for it. No Save for the
	// victim can land in between: only its own worker goroutine
	// checkpoints it, and that worker has stopped — it died after its
	// last restart, or transportFailover halted it and waited it out.
	victimCk := c.rec.Latest(n.ID)
	c.mu.Lock()
	defer c.mu.Unlock()
	atomic.StoreInt32(&n.state, int32(NodeDead))

	// Collect the corpse's queue. fail() first so a racing producer
	// either lands in the buffer (drained here) or gets errNodeDown —
	// never in between.
	n.in.fail()
	items := n.in.drain()
	if cur := n.current; cur.flush != nil || cur.stream != "" || cur.restore != nil {
		// The item being processed at the final crash. A never-retried
		// tuple is presumed innocent and salvaged; a tuple that crashed
		// the worker through every restart is poison and is dropped. A
		// restore job is neither: its queries are still marked
		// pendingRestore on their records and are re-dispatched below.
		if cur.stream != "" && cur.retries > 0 {
			n.noteDrop()
		} else {
			items = append([]work{cur}, items...)
		}
		n.current = work{}
	}
	var salvage []recovery.Tuple
	for _, w := range items {
		switch {
		case w.flush != nil:
			close(w.flush) // the flush can no longer be honoured here
		case w.restore != nil:
			c.recovering-- // the job's dispatch counted one settle
		default:
			salvage = append(salvage, recovery.Tuple{Stream: lowerKey(w.stream), Seq: w.seq, TS: w.el.TS, Row: w.el.Row})
		}
	}

	victimLog := c.rec.Log(n.ID)
	jobs := make(map[int]*restoreJob)
	fed := make(map[string]bool) // streams a migrated query reads
	for _, rec := range c.queries {
		if rec.node != n.ID {
			continue
		}
		target := c.pickNodeLocked()
		if target < 0 {
			n.noteErr(NodeError{Node: n.ID, QueryID: rec.id,
				Err: fmt.Errorf("cluster: query %s lost: %w", rec.id, ErrNoLiveNodes)})
			delete(c.queries, rec.id)
			c.gov.releaseQuery(rec.tenant)
			continue
		}
		if rec.pendingRestore {
			// Second failover before the first restore ran: keep the
			// original cut and extend its feed with what this victim
			// logged and still had queued.
			rec.feed = recovery.MergeFeeds(rec.feed, victimLog.Since(rec.cursors), salvage)
		} else {
			rec.ckpt = victimCk
			rec.cursors = make(map[string]int64)
			if victimCk != nil {
				for k, v := range victimCk.Cursors {
					rec.cursors[k] = v
				}
			}
			rec.feed = recovery.MergeFeeds(victimLog.Since(rec.cursors), salvage)
		}
		if !victimLog.Covered(rec.cursors) {
			c.rec.NoteLostCoverage()
		}
		for _, s := range rec.streams {
			fed[s] = true
		}
		rec.pendingRestore = true
		rec.node = target
		atomic.AddInt32(&c.nodes[target].queries, 1)
		c.nodes[target].budgetUsed += rec.budget
		j := jobs[target]
		if j == nil {
			j = &restoreJob{}
			jobs[target] = j
		}
		j.ids = append(j.ids, rec.id)
	}
	atomic.StoreInt32(&n.queries, 0)
	n.budgetUsed = 0
	c.rebuildHostsLocked()

	// A salvaged tuple counts once: requeued when a migrated query's feed
	// or a partition resend carries it on, dropped otherwise. Resends go
	// to the front of their target's queue, in order and behind its
	// restore job (pushed last), so they reach the target before any
	// tuple routed after this failover: a restored operator still holds
	// its cursor for them, and drops those already in its feed.
	for i := len(salvage) - 1; i >= 0; i-- {
		t := salvage[i]
		if c.resendLocked(t) || fed[t.Stream] {
			atomic.AddInt64(&n.requeued, 1)
			n.met.salvaged.Inc()
		} else {
			n.noteDrop()
		}
	}
	for target, j := range jobs {
		if c.nodes[target].in.pushFront(work{restore: j}) {
			c.recovering++
		}
		// A rejected push means the target closed; the records stay
		// pendingRestore and the cluster is shutting down anyway.
	}
}

// resendLocked re-hashes one salvaged tuple of a partitioned stream
// over the surviving hosts, for their non-migrated queries: the tuple
// had its only copy on the corpse. It reports whether a node took it.
// Broadcast tuples are never resent: every other host has its own copy.
// The caller holds c.mu.
func (c *Cluster) resendLocked(t recovery.Tuple) bool {
	if c.opts.PartitionColumn == "" {
		return false
	}
	hosts := c.streamHosts[t.Stream]
	schema, ok := c.schemas[t.Stream]
	if !ok || len(hosts) == 0 {
		return false
	}
	idx, err := schema.Tuple.IndexOf(c.opts.PartitionColumn)
	if err != nil {
		return false
	}
	target := hosts[int(valueHash(t.Row[idx])%uint64(len(hosts)))]
	return c.nodes[target].in.pushFront(work{stream: t.Stream, el: stream.Timestamped{TS: t.TS, Row: t.Row}, seq: t.Seq})
}

// runRestore executes a restoreJob on the target's worker goroutine.
// The job's queries are restored in groups, one per cut they carry
// (queries that failed over together share their victim's checkpoint),
// each group restored whole before its merged feed is replayed once
// through its operators. Runs before any queued tuple (the job was
// pushed to the queue front), so the restored cursors are in place
// before live traffic resumes.
func (n *Node) runRestore(c *Cluster, job *restoreJob) {
	defer func() {
		if !job.settled {
			job.settled = true
			c.settle(-1)
		}
	}()
	type group struct {
		ck   *recovery.Checkpoint
		recs []*queryRecord
		r    *exastream.Restore
		feed []recovery.Tuple
	}
	var groups []*group
	c.mu.Lock()
	for _, id := range job.ids {
		rec := c.queries[id]
		if rec == nil || rec.node != n.ID || !rec.pendingRestore {
			continue // unregistered or re-migrated since the job was queued
		}
		i := slices.IndexFunc(groups, func(g *group) bool { return g.ck == rec.ckpt })
		if i < 0 {
			i, groups = len(groups), append(groups, &group{ck: rec.ckpt})
		}
		groups[i].recs = append(groups[i].recs, rec)
	}
	for _, g := range groups {
		// Records of one cut carry equal cursors, and their feeds are runs
		// of the same per-stream sequences: merged, they are one feed.
		cursors := g.recs[0].cursors
		feeds := [][]recovery.Tuple{c.rec.Log(n.ID).Since(cursors)}
		for _, rec := range g.recs {
			feeds = append(feeds, rec.feed)
		}
		g.feed = recovery.MergeFeeds(feeds...)
		g.r, g.recs = c.restoreLocked(n, g.ck.State(), cursors, g.recs)
	}
	c.mu.Unlock()

	restoredQueries := 0
	for _, g := range groups {
		n.replay(c, g.r, g.feed)
		for _, rec := range g.recs {
			n.rec.Record(telemetry.EvRestore, rec.id, rec.tenant, 0, int64(len(g.feed)))
		}
		restoredQueries += len(g.recs)
	}
	n.lastWins = n.engine.Stats().WindowsExecuted
	if restoredQueries > 0 {
		c.rec.NoteRestore()
		// With checkpoints, make the migration durable NOW. The replay
		// feed (victim log + salvaged queue) exists nowhere this node can
		// reach after it is consumed: until a checkpoint commits here, a
		// crash on this node rebuilds from a cut that predates the
		// migration and the restored queries' open-window state is
		// silently lost. The engine is quiescent (worker goroutine,
		// between items), so this is a free consistent cut; retry once so
		// a single torn write does not leave the feed volatile. The
		// records stay pendingRestore until then, so a crash before the
		// cut commits retries the whole job on the rebuilt engine.
		if c.opts.CheckpointEvery > 0 && !n.checkpoint(c) {
			n.checkpoint(c)
		}
	}
	c.mu.Lock()
	for _, g := range groups {
		for _, rec := range g.recs {
			rec.pendingRestore = false
			rec.ckpt = nil
			rec.cursors = nil
			rec.feed = nil
		}
	}
	c.mu.Unlock()
}
