package exastream

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/recovery"
	"repro/internal/sql"
	"repro/internal/stream"
)

// ExportState snapshots the engine's stream state: each window
// operator once, however many queries read it, and per query the
// operators it reads, its staged partial windows, quarantine
// bookkeeping and applied sequence cursors. The caller must quiesce
// the engine first (the cluster calls it on the node's worker goroutine
// between work items, which is a consistent cut by construction:
// Ingest is synchronous, so no window is mid-advance).
func (e *Engine) ExportState() *recovery.EngineState {
	type qsnap struct {
		q   *continuousQuery
		ops []*stream.TimeSlidingWindow
		seq map[string]int64
	}
	e.mu.Lock()
	snaps := make([]qsnap, 0, len(e.queries))
	for _, q := range e.queries {
		s := qsnap{q: q, ops: make([]*stream.TimeSlidingWindow, len(q.refs))}
		for i := range q.refs {
			if sw := e.windows[q.windowKey(i)]; sw != nil {
				s.ops[i] = sw.op
			}
		}
		if q.appliedSeq != nil {
			s.seq = make(map[string]int64, len(q.appliedSeq))
			for k, v := range q.appliedSeq {
				s.seq[k] = v
			}
		}
		snaps = append(snaps, s)
	}
	e.mu.Unlock()
	sort.Slice(snaps, func(i, j int) bool { return snaps[i].q.id < snaps[j].q.id })

	// Operators are numbered in the order the queries, sorted by id,
	// first read them, so equal engines export equal states.
	st := &recovery.EngineState{}
	var ops []*stream.TimeSlidingWindow // st.Windows[k] snapshots ops[k]
	for _, s := range snaps {
		qs := recovery.QueryState{ID: s.q.id, AppliedSeq: s.seq, Windows: make([]int, len(s.ops))}
		for i, op := range s.ops {
			k := slices.Index(ops, op) // -1 for a nil op too
			if op != nil && k < 0 {
				k, ops = len(ops), append(ops, op)
				st.Windows = append(st.Windows, op.Snapshot())
			}
			qs.Windows[i] = k
		}
		s.q.mu.Lock()
		ends := make([]int64, 0, len(s.q.pending))
		for end := range s.q.pending {
			ends = append(ends, end)
		}
		sort.Slice(ends, func(i, j int) bool { return ends[i] < ends[j] })
		for _, end := range ends {
			pw := recovery.PendingWindow{End: end, Batches: make(map[int]stream.Batch, len(s.q.pending[end]))}
			for ref, sb := range s.q.pending[end] {
				b := sb.b // emitted, so its rows never change
				b.Rows = slices.Clip(b.Rows)
				pw.Batches[ref] = b
			}
			qs.Pending = append(qs.Pending, pw)
		}
		qs.Failures = s.q.failures
		qs.Suspended = s.q.suspended
		s.q.mu.Unlock()
		qs.Budget = s.q.budget.Load()
		qs.Stride = s.q.stride.Load()
		st.Queries = append(st.Queries, qs)
	}
	return st
}

// RestoreQuery registers a query whose stream state resumes from a
// checkpoint instead of starting empty. The restored query's window
// operators are private (owner-keyed, not shared with other queries) so
// the supervisor can replay logged tuples into them without disturbing the
// node's other queries; its applied-sequence cursors make that replay —
// and any overlap with live traffic — idempotent. The query's state is
// looked up by id in es; when es is nil or predates the query, it
// restores with fresh windows, cursored at the node's cut so replay
// still covers the gap.
func (e *Engine) RestoreQuery(id string, stmt *sql.SelectStmt, pulse *stream.Pulse, sink Sink, es *recovery.EngineState, cursors map[string]int64) error {
	q, err := e.newQuery(id, stmt, pulse, sink)
	if err != nil {
		return err
	}
	q.private, q.appliedSeq = true, make(map[string]int64)
	st := es.Query(id)
	if st != nil && st.AppliedSeq != nil {
		cursors = st.AppliedSeq
	}
	for k, v := range cursors {
		q.appliedSeq[k] = v
	}
	if st != nil {
		for _, pw := range st.Pending {
			m := make(map[int]stagedBatch, len(pw.Batches))
			for ref, b := range pw.Batches {
				m[ref] = newStaged(b)
				q.stagedBytes += m[ref].bytes
			}
			q.pending[pw.End] = m
		}
		q.failures = st.Failures
		q.suspended = st.Suspended
		q.budget.Store(st.Budget)
		q.stride.Store(st.Stride)
	}
	if err := e.subscribe(q, es); err != nil {
		return err
	}
	e.warmPlan(q)
	return nil
}

// restoredOp seeds one window operator from its snapshot; a missing or
// spec-mismatched snapshot (the statement changed since the
// checkpoint) gets a fresh operator.
func restoredOp(spec stream.WindowSpec, w *stream.WindowState) (*stream.TimeSlidingWindow, error) {
	if w != nil && w.Spec == spec {
		return stream.RestoreTimeSlidingWindow(*w)
	}
	return stream.NewTimeSlidingWindow(spec)
}

// ReplayFor re-feeds one logged tuple to a restored query. Only the
// query's own (owner-keyed) windows advance; the applied-sequence
// cursor drops tuples the checkpointed state already saw.
func (e *Engine) ReplayFor(id, streamName string, el stream.Timestamped, seq int64) error {
	e.mu.Lock()
	key := strings.ToLower(streamName)
	if _, ok := e.streams[key]; !ok {
		e.mu.Unlock()
		return fmt.Errorf("exastream: unknown stream %q", streamName)
	}
	q, ok := e.queries[id]
	if !ok {
		e.mu.Unlock()
		return fmt.Errorf("exastream: unknown query %q", id)
	}
	if seq != 0 && q.appliedSeq != nil {
		if seq <= q.appliedSeq[key] {
			e.mu.Unlock()
			return nil
		}
		q.appliedSeq[key] = seq
	}
	var fires []delivery
	for wk, sw := range e.windows {
		if wk.stream != key || wk.owner != id {
			continue
		}
		before := sw.op.Late
		batches := sw.op.Push(el)
		e.met.lateTuples.Add(sw.op.Late - before)
		for _, b := range batches {
			e.met.batchesBuilt.Inc()
			for _, sub := range sw.subs {
				fires = append(fires, delivery{sub, b})
			}
		}
	}
	e.mu.Unlock()
	err := e.dispatch(fires)
	e.enforceBudgets()
	return err
}
