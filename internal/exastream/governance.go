package exastream

import (
	"errors"
	"fmt"
	"slices"
	"sync/atomic"

	"repro/internal/stream"
	"repro/internal/telemetry"
)

// ErrQueryOverBudget marks a query degraded or suspended because its
// window state exceeded its memory budget. It reaches the cluster error
// ring through the OnQueryError hook; errors.Is matches it.
var ErrQueryOverBudget = errors.New("exastream: query over memory budget")

// DegradePolicy selects what the engine does when a query's window
// state exceeds its byte budget. Whatever the policy, overload is a
// handled state: the worker never OOMs on a runaway query.
type DegradePolicy int

const (
	// DegradeShed (default) drops the query's oldest open window state
	// — staged partial windows first, then window-operator batches —
	// until the query fits its budget again. Shed windows are lost, not
	// emitted empty.
	DegradeShed DegradePolicy = iota
	// DegradeWiden doubles the query's effective slide (it executes
	// every 2nd, then 4th, ... window) and sheds like DegradeShed to
	// reclaim immediately. Fewer open windows means less state at the
	// cost of coarser results.
	DegradeWiden
	// DegradeSuspend quarantines the query outright: its staged and
	// owned window state is dropped and it skips execution until Resume,
	// exactly like a poison query.
	DegradeSuspend
)

// String renders the policy for flags and docs.
func (p DegradePolicy) String() string {
	switch p {
	case DegradeWiden:
		return "widen"
	case DegradeSuspend:
		return "suspend"
	default:
		return "shed"
	}
}

// maxStride caps DegradeWiden's slide widening.
const maxStride = 1024

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

// QueryBudget reports a query's current budget and widen stride (1 when
// never widened).
func (e *Engine) QueryBudget(id string) (budget, stride int64, err error) {
	e.mu.Lock()
	q, ok := e.queries[id]
	e.mu.Unlock()
	if !ok {
		return 0, 0, fmt.Errorf("exastream: unknown query %q", id)
	}
	if stride = q.stride.Load(); stride < 1 {
		stride = 1
	}
	return q.budget.Load(), stride, nil
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

// enforceBudgets applies the degradation policy to every query whose
// window state exceeds its budget. Called after each ingest/replay tick;
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

// enforceQuery measures one query against its budget and degrades it
// per the configured policy when it is over.
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

	policy := e.opts.Degrade
	if policy == DegradeSuspend {
		e.suspendOverBudget(t, usage, budget)
		return
	}
	if policy == DegradeWiden {
		s := q.stride.Load()
		if s < 1 {
			s = 1
		}
		if s < maxStride {
			q.stride.Store(s * 2)
			e.met.govWidenEvents.Inc()
			e.opts.Recorder.Record(telemetry.EvDegradeWiden, q.id, "", 0, s*2)
		}
	}
	// Shed pass (both Shed and Widen): oldest staged partial windows
	// first — they are incomplete and cheapest to lose — then the oldest
	// batches of solely-owned window operators.
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
		e.opts.OnQueryError(q.id, fmt.Errorf("exastream: query %s degraded (%s policy, usage %d > budget %d): %w",
			q.id, policy, usage, budget, ErrQueryOverBudget))
	}
}

// suspendOverBudget quarantines an over-budget query and drops all its
// droppable state.
func (e *Engine) suspendOverBudget(t govTarget, usage, budget int64) {
	q := t.q
	q.mu.Lock()
	q.suspended = true
	q.pending = make(map[int64]map[int]stream.Batch)
	q.stagedBytes = 0
	q.mu.Unlock()
	for _, op := range t.owned {
		for {
			freed, ok := op.ShedOldestPending()
			if !ok {
				break
			}
			e.met.govShedBatches.Inc()
			e.met.govShedBytes.Add(freed)
		}
	}
	e.met.govSuspended.Inc()
	e.met.suspensions.Inc()
	e.opts.Recorder.Record(telemetry.EvDegradeSuspend, q.id, "", 0, usage-budget)
	q.govOver.Store(true)
	if e.opts.OnQueryError != nil {
		e.opts.OnQueryError(q.id, fmt.Errorf("exastream: query %s suspended (usage %d > budget %d): %w",
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
