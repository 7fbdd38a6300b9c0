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

// ExportState snapshots the engine's per-query stream state — window
// operators, staged partial windows, quarantine bookkeeping, applied
// sequence cursors. The caller must quiesce the engine first (the
// cluster calls it on the node's worker goroutine between work items,
// which is a consistent cut by construction: Ingest is synchronous, so
// no window is mid-advance).
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
			key := windowKey{stream: strings.ToLower(q.refs[i].Table), spec: q.specs[i]}
			if q.private {
				key.owner = q.id
			}
			if sw := e.windows[key]; sw != nil {
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

	st := &recovery.EngineState{}
	for _, s := range snaps {
		qs := recovery.QueryState{ID: s.q.id, AppliedSeq: s.seq}
		for _, op := range s.ops {
			if op == nil {
				qs.Windows = append(qs.Windows, stream.WindowState{})
				continue
			}
			qs.Windows = append(qs.Windows, op.Snapshot())
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
// and any overlap with live traffic — idempotent. A nil QueryState
// restores with fresh windows (checkpoint predates the query), cursored
// at the node's cut so replay still covers the gap.
func (e *Engine) RestoreQuery(id string, stmt *sql.SelectStmt, pulse *stream.Pulse, sink Sink, st *recovery.QueryState, cursors map[string]int64) error {
	if pulse != nil {
		if err := pulse.Validate(); err != nil {
			return err
		}
	}
	refs := collectStreamRefs(stmt)
	if len(refs) == 0 {
		return fmt.Errorf("exastream: query %s references no stream; run it with engine.Run instead", id)
	}
	q := &continuousQuery{
		id: id, stmt: stmt, refs: refs, pulse: pulse, sink: sink,
		pending:    make(map[int64]map[int]stagedBatch),
		private:    true,
		appliedSeq: make(map[string]int64),
	}
	if st != nil && st.AppliedSeq != nil {
		for k, v := range st.AppliedSeq {
			q.appliedSeq[k] = v
		}
	} else {
		for k, v := range cursors {
			q.appliedSeq[k] = v
		}
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
	if e.opts.Tracer != nil {
		if q.trace = e.opts.Tracer.Trace(id); q.trace == nil {
			q.trace = e.opts.Tracer.Start(id)
		}
	}
	if err := e.restoreLocked(q, st); err != nil {
		return err
	}
	e.warmPlan(q)
	return nil
}

// restoreLocked is registerLocked with owner-keyed window operators
// seeded from the snapshot.
func (e *Engine) restoreLocked(q *continuousQuery, st *recovery.QueryState) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.checkRefsLocked(q); err != nil {
		return err
	}
	for i, ref := range q.refs {
		key := windowKey{stream: strings.ToLower(ref.Table), spec: q.specs[i], owner: q.id}
		sw, ok := e.windows[key]
		if !ok {
			op, err := e.restoredOp(q.specs[i], st, i)
			if err != nil {
				return err
			}
			sw = &sharedWindow{op: op}
			e.windows[key] = sw
		}
		sw.subs = append(sw.subs, &querySub{q: q, refIdx: i})
	}
	e.admitLocked(q)
	return nil
}

// restoredOp seeds one window operator from the snapshot's i-th stream
// reference; a missing or spec-mismatched snapshot (the statement
// changed since the checkpoint) gets a fresh operator.
func (e *Engine) restoredOp(spec stream.WindowSpec, st *recovery.QueryState, i int) (*stream.TimeSlidingWindow, error) {
	if st != nil && i < len(st.Windows) && st.Windows[i].Spec == spec {
		return stream.RestoreTimeSlidingWindow(st.Windows[i])
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
