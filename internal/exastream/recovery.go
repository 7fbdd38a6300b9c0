package exastream

import (
	"maps"
	"slices"
	"sort"

	"repro/internal/recovery"
	"repro/internal/sql"
	"repro/internal/stream"
)

// ExportState snapshots the engine's stream state: each window
// operator once, however many queries read it, with a restored
// operator's replay cursor, and per query the operators it reads, its
// staged partial windows and quarantine bookkeeping. The caller must
// quiesce the engine first (the cluster calls it on the node's worker
// goroutine between work items, which is a consistent cut by
// construction: Ingest is synchronous, so no window is mid-advance).
func (e *Engine) ExportState() *recovery.EngineState {
	e.mu.Lock()
	qs := make([]*continuousQuery, 0, len(e.queries))
	for _, q := range e.queries {
		qs = append(qs, q)
	}
	sort.Slice(qs, func(i, j int) bool { return qs[i].id < qs[j].id })
	// Operators are numbered in the order the queries, sorted by id,
	// first read them, so equal engines export equal states.
	st := &recovery.EngineState{Queries: make([]recovery.QueryState, len(qs))}
	var ops []*sharedWindow // st.Windows[k] snapshots ops[k]
	for j, q := range qs {
		refs := make([]int, len(q.ops))
		for i, sw := range q.ops {
			k := slices.Index(ops, sw)
			if k < 0 {
				k, ops = len(ops), append(ops, sw)
				st.Windows = append(st.Windows, recovery.Window{WindowState: sw.op.Snapshot(), Seq: sw.seq})
			}
			refs[i] = k
		}
		st.Queries[j] = recovery.QueryState{ID: q.id, Windows: refs}
	}
	e.mu.Unlock()

	for j, q := range qs {
		s := &st.Queries[j]
		q.mu.Lock()
		ends := make([]int64, 0, len(q.pending))
		for end := range q.pending {
			ends = append(ends, end)
		}
		slices.Sort(ends)
		for _, end := range ends {
			pw := recovery.PendingWindow{End: end, Batches: make(map[int]stream.Batch, len(q.pending[end]))}
			maps.Copy(pw.Batches, q.pending[end])
			s.Pending = append(s.Pending, pw)
		}
		s.Failures = q.failures
		s.Suspended = q.suspended
		q.mu.Unlock()
		s.Budget = q.budget.Load()
	}
	return st
}

// Restore is one restore of queries from one cut: a checkpoint's engine
// state and its per-stream cursors. The queries it brings back share
// the checkpointed window operators again, one operator however many of
// them read it, and Replay pushes the logged tuples through those
// operators once. Restore every query of the cut before replaying
// anything: a query restored after replay began would subscribe to an
// operator that is already past the cut. Done ends the restore.
type Restore struct {
	e       *Engine
	id      int64
	es      *recovery.EngineState
	cursors map[string]int64
}

// Restore opens a restore from es at the cut's per-stream cursors. es
// may be nil, or predate some of the queries: those restore with fresh
// operators, cursored at the cut, so replay still covers the gap.
func (e *Engine) Restore(es *recovery.EngineState, cursors map[string]int64) *Restore {
	return &Restore{e: e, id: e.restores.Add(1), es: es, cursors: cursors}
}

// Query registers a query whose stream state resumes from the cut
// instead of starting empty: its staged windows, quarantine and
// governance state are looked up by id, and each stream reference
// subscribes to the restore's operator for the state it read at the
// cut. Restored operators are the restore's own, never the engine's
// live ones, so replay cannot disturb the node's other queries.
func (r *Restore) Query(id string, stmt *sql.SelectStmt, pulse *stream.Pulse, sink Sink) error {
	q, err := r.e.newQuery(id, stmt, pulse, sink)
	if err != nil {
		return err
	}
	if st := r.es.Query(id); st != nil {
		for _, pw := range st.Pending {
			for _, b := range pw.Batches {
				q.stagedBytes += b.Bytes()
			}
			q.pending[pw.End] = maps.Clone(pw.Batches) // stage adds to it
		}
		q.failures = st.Failures
		q.suspended = st.Suspended
		q.budget.Store(st.Budget)
	}
	if err := r.e.subscribe(q, r); err != nil {
		return err
	}
	r.e.warmPlan(q)
	return nil
}

// restoredOp seeds one window operator from its snapshot, or opens a
// fresh one when there is none.
func restoredOp(spec stream.WindowSpec, w *recovery.Window) (*stream.TimeSlidingWindow, error) {
	if w != nil {
		return stream.RestoreTimeSlidingWindow(w.WindowState)
	}
	return stream.NewTimeSlidingWindow(spec)
}

// Replay re-feeds one logged tuple to the restore's operators: each
// advances once for all its readers, and only if the tuple is above its
// cursor, so a feed replayed twice, or overlapping live traffic,
// applies once. The node's live operators do not see the tuple.
func (r *Restore) Replay(streamName string, el stream.Timestamped, seq int64) error {
	return r.e.push(streamName, el, seq, r.id)
}

// Done ends the restore once its feed is replayed. An operator the
// replay left without a cursor has nothing to deduplicate and goes live
// at once; the others go live at their first live tuple above the
// cursor.
func (r *Restore) Done() {
	r.e.mu.Lock()
	defer r.e.mu.Unlock()
	var idle []*sharedWindow
	for k, sw := range r.e.windows {
		if k.restore == r.id && sw.seq == 0 {
			idle = append(idle, sw)
		}
	}
	r.e.goLiveLocked(idle)
}
