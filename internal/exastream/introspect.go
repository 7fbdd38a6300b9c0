package exastream

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/engine"
	"repro/internal/telemetry"
)

// QueryStats returns the per-operator stats accumulated across a
// query's window executions so far, plus how many windows contributed.
// EXPLAIN ANALYZE renders these counters.
func (e *Engine) QueryStats(id string) (stats engine.ExecStats, windows int64, err error) {
	e.mu.Lock()
	q, ok := e.queries[id]
	e.mu.Unlock()
	if !ok {
		return engine.ExecStats{}, 0, fmt.Errorf("exastream: unknown query %q", id)
	}
	q.execMu.Lock()
	defer q.execMu.Unlock()
	return q.cum, q.windows, nil
}

// ExplainQuery renders a registered query's physical plan as an
// indented operator tree, annotated with the vectorized/row execution
// path. With analyze set, every operator also carries the observed
// stats accumulated across the query's window executions (calls,
// output rows, selectivity, inclusive wall time) plus an execution
// summary footer. A query that has not executed yet gets its plan
// built on the spot (without populating the cache) so EXPLAIN works
// before the first window fires.
func (e *Engine) ExplainQuery(id string, analyze bool) (string, error) {
	e.mu.Lock()
	q, ok := e.queries[id]
	e.mu.Unlock()
	if !ok {
		return "", fmt.Errorf("exastream: unknown query %q", id)
	}

	q.execMu.Lock()
	cp := q.plan
	if cp == nil {
		var err error
		if cp, err = e.buildPlan(q); err != nil {
			q.execMu.Unlock()
			return "", fmt.Errorf("exastream: query %s: %w", id, err)
		}
	}
	cum := q.cum
	windows := q.windows
	rowsOut := q.rowsOutTotal
	lastEnd := q.lastEnd
	q.execMu.Unlock()

	var sb strings.Builder
	fmt.Fprintf(&sb, "-- query %s\n", q.id)
	fmt.Fprintf(&sb, "-- sql: %s\n", q.stmt.String())
	for i, spec := range q.specs {
		fmt.Fprintf(&sb, "-- window[%d]: %s range=%dms slide=%dms\n",
			i, q.refs[i].Table, spec.RangeMS, spec.SlideMS)
	}
	if analyze {
		fmt.Fprintf(&sb, "-- executed: windows=%d rows_out=%d last_window_end=%dms\n",
			windows, rowsOut, lastEnd)
		// Annotate each operator with the planner's estimated rows next
		// to the observed ones. A window source is estimated at the rows
		// per window its executions delivered so far.
		var windowRows float64
		if src := cum.Ops[engine.OpWindowSource]; src.Calls > 0 {
			windowRows = float64(src.RowsOut) / float64(src.Calls)
		}
		est := engine.EstimatePlan(cp.adapted, e.stats, windowRows)
		sb.WriteString(engine.ExplainAnalyze(cp.adapted, &cum, est))
	} else {
		sb.WriteString(engine.ExplainAnalyze(cp.adapted, nil, nil))
	}
	return sb.String(), nil
}

// LagView reports every registered query's runtime position: how far
// its event-time frontier trails the engine's newest executed window,
// the window state it is holding, and its governance standing. Node
// and tenant attribution are stamped by the cluster layer.
func (e *Engine) LagView() []telemetry.QueryLag {
	e.mu.Lock()
	targets := make([]govTarget, 0, len(e.queries))
	for _, q := range e.queries {
		targets = append(targets, q.windowStateLocked())
	}
	e.mu.Unlock()

	out := make([]telemetry.QueryLag, 0, len(targets))
	var frontier int64
	for _, t := range targets {
		q := t.q
		lag := telemetry.QueryLag{ID: q.id, State: "running"}
		q.execMu.Lock()
		lag.Windows = q.windows
		lag.RowsOut = q.rowsOutTotal
		lag.LastWindowEnd = q.lastEnd
		q.execMu.Unlock()
		q.mu.Lock()
		lag.BacklogBytes = q.stagedBytes
		if q.suspended {
			lag.State = "suspended"
		}
		q.mu.Unlock()
		for _, op := range t.owned {
			lag.BacklogBytes += op.PendingBytes()
		}
		if b := q.budget.Load(); b > 0 {
			lag.BudgetBytes = b
			lag.HeadroomBytes = b - lag.BacklogBytes
		}
		if lag.LastWindowEnd > frontier {
			frontier = lag.LastWindowEnd
		}
		out = append(out, lag)
	}
	for i := range out {
		if out[i].LastWindowEnd > 0 {
			out[i].WatermarkLagMS = frontier - out[i].LastWindowEnd
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Events dumps the node flight recorder (nil-safe: no recorder, no
// events).
func (e *Engine) Events() []telemetry.Event {
	return e.opts.Recorder.Events()
}
