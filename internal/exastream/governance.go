package exastream

import (
	"errors"
	"fmt"
	"slices"
	"sync/atomic"

	"repro/internal/stream"
	"repro/internal/telemetry"
)

// ErrQueryOverBudget marks a query whose window state exceeded its
// memory budget, so the engine shed its oldest open windows. It
// reaches the cluster error ring through the OnQueryError hook;
// errors.Is matches it.
var ErrQueryOverBudget = errors.New("exastream: query over memory budget")

// SetQueryBudget sets (or, with 0, clears) a registered query's byte
// budget, overriding Options.MemBudget for that query. The cluster
// layer calls it with the budget derived by starql.AnalyzeMemory.
func (e *Engine) SetQueryBudget(id string, budget int64) error {
	e.mu.Lock()
	q, ok := e.queries[id]
	e.mu.Unlock()
	if !ok {
		return fmt.Errorf("exastream: unknown query %q", id)
	}
	q.budget.Store(budget)
	if budget > 0 {
		atomic.StoreInt32(&e.govActive, 1)
	}
	return nil
}

// QueryBudget reports a query's current byte budget.
func (e *Engine) QueryBudget(id string) (int64, error) {
	e.mu.Lock()
	q, ok := e.queries[id]
	e.mu.Unlock()
	if !ok {
		return 0, fmt.Errorf("exastream: unknown query %q", id)
	}
	return q.budget.Load(), nil
}

// govTarget is one query's enforcement work: the window operators only
// it reads (sheddable) and the byte estimate of shared operators it
// co-tenants (charged but never shed — shedding them would corrupt
// innocent queries).
type govTarget struct {
	q           *continuousQuery
	owned       []*stream.TimeSlidingWindow
	sharedBytes int64
}

// windowStateLocked splits the operators q reads into those only q
// reads and the bytes of those it shares. The caller holds e.mu.
func (q *continuousQuery) windowStateLocked() govTarget {
	t := govTarget{q: q}
	for i, sw := range q.ops {
		if slices.Contains(q.ops[:i], sw) {
			continue // a self-join reads one operator twice
		}
		if slices.ContainsFunc(sw.subs, func(s *querySub) bool { return s.q != q }) {
			t.sharedBytes += sw.op.PendingBytes()
		} else {
			t.owned = append(t.owned, sw.op)
		}
	}
	return t
}

// enforceBudgets sheds window state from every query whose window
// state exceeds its budget. Called after each ingest/replay tick;
// a single atomic guards the fast path when governance is off.
func (e *Engine) enforceBudgets() {
	if atomic.LoadInt32(&e.govActive) == 0 {
		return
	}
	e.mu.Lock()
	targets := make([]govTarget, 0, len(e.queries))
	for _, q := range e.queries {
		if q.budget.Load() > 0 {
			targets = append(targets, q.windowStateLocked())
		}
	}
	e.mu.Unlock()
	for _, t := range targets {
		e.enforceQuery(t)
	}
}

// enforceQuery measures one query against its budget and, when it is
// over, drops its oldest open window state until it fits again. Shed
// windows are lost, not emitted empty; overload is a handled state, so
// the worker never OOMs on a runaway query.
func (e *Engine) enforceQuery(t govTarget) {
	q := t.q
	budget := q.budget.Load()
	usage := t.sharedBytes
	for _, op := range t.owned {
		usage += op.PendingBytes()
	}
	q.mu.Lock()
	suspended := q.suspended
	usage += q.stagedBytes
	q.mu.Unlock()
	if e.opts.Pressure != nil {
		usage += e.opts.Pressure(q.id)
	}
	if suspended || usage <= budget {
		if !suspended {
			q.govOver.Store(false) // episode over: report the next overrun again
		}
		return
	}

	// Shed pass: oldest staged partial windows first — they are
	// incomplete and cheapest to lose — then the oldest batches of
	// solely-owned window operators.
	var shedBytes int64
	for usage > budget {
		if freed, ok := e.shedOldestStaged(q); ok {
			usage -= freed
			shedBytes += freed
			continue
		}
		var best *stream.TimeSlidingWindow
		var bestBytes int64
		for _, op := range t.owned {
			if pb := op.PendingBytes(); pb > bestBytes {
				best, bestBytes = op, pb
			}
		}
		if best == nil {
			break
		}
		freed, ok := best.ShedOldestPending()
		if !ok {
			break
		}
		usage -= freed
		shedBytes += freed
		e.met.govShedBatches.Inc()
		e.met.govShedBytes.Add(freed)
	}
	if shedBytes > 0 {
		// One event per enforcement pass with the total reclaimed, not
		// one per batch — degradation episodes should not wash the
		// recorder's bounded ring of everything else.
		e.opts.Recorder.Record(telemetry.EvDegradeShed, q.id, "", 0, shedBytes)
	}
	if usage > budget {
		// Residual overage: what remains is shared window state or
		// injected pressure that shedding cannot reclaim without harming
		// co-tenant queries. Count it; the operator sees it on /metrics.
		e.met.govOverBudget.Inc()
	}
	// Report once per degradation episode: every enforcement pass while
	// the query stays over budget would otherwise flood the error ring
	// with one identical error per ingested tuple.
	if e.opts.OnQueryError != nil && q.govOver.CompareAndSwap(false, true) {
		e.opts.OnQueryError(q.id, fmt.Errorf("exastream: query %s degraded (usage %d > budget %d): %w",
			q.id, usage, budget, ErrQueryOverBudget))
	}
}

// shedOldestStaged drops the query's oldest staged partial window and
// returns the bytes reclaimed.
func (e *Engine) shedOldestStaged(q *continuousQuery) (freed int64, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	oldest := int64(1<<62 - 1)
	for end := range q.pending {
		if end < oldest {
			oldest = end
		}
	}
	m, found := q.pending[oldest]
	if !found {
		return 0, false
	}
	for _, b := range m {
		freed += b.Bytes()
	}
	delete(q.pending, oldest)
	q.stagedBytes -= freed
	e.met.govShedBatches.Inc()
	e.met.govShedBytes.Add(freed)
	return freed, true
}
