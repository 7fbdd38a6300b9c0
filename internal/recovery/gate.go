package recovery

import (
	"sync"

	"repro/internal/relation"
	"repro/internal/telemetry"
)

// Sink mirrors the engine's sink signature without importing it (the
// engine layer converts).
type Sink func(queryID string, windowEnd int64, schema relation.Schema, cb *relation.ColBatch)

// Gate enforces exactly-once window delivery across failover. It owns
// the per-query emitted-window high-water mark and lives in the cluster
// (not in any node's engine), so it survives worker death: a window
// re-executed during replay on the recovery target is suppressed when
// its end is at or below the mark.
//
// Delivery and mark advance happen atomically under one per-query
// mutex, so a crash between them is impossible to observe downstream —
// the crash-after-emit fault injection point fires after the mark has
// advanced, modelling a worker dying before its next checkpoint, which
// replay then deduplicates.
type Gate struct {
	mu      sync.Mutex
	queries map[string]*gateEntry
	deduped *telemetry.Counter
	emitted *telemetry.Counter
}

type gateEntry struct {
	mu   sync.Mutex
	hwm  int64
	seen bool // distinguishes "no window yet" from a real hwm of 0
}

// NewGate builds a gate; counters may be nil (standalone use in tests).
func NewGate(deduped, emitted *telemetry.Counter) *Gate {
	if deduped == nil {
		deduped = &telemetry.Counter{}
	}
	if emitted == nil {
		emitted = &telemetry.Counter{}
	}
	return &Gate{queries: make(map[string]*gateEntry), deduped: deduped, emitted: emitted}
}

func (g *Gate) entry(id string) *gateEntry {
	g.mu.Lock()
	defer g.mu.Unlock()
	e := g.queries[id]
	if e == nil {
		e = &gateEntry{}
		g.queries[id] = e
	}
	return e
}

// Wrap returns a sink that forwards to next exactly once per window end
// and advances the query's high-water mark atomically with the
// delivery. afterEmit (optional) runs after each delivered window, with
// no gate locks held — it is the crash-after-emit fault injection
// point and may panic.
func (g *Gate) Wrap(id string, next Sink, afterEmit func(queryID string, windowEnd int64)) Sink {
	e := g.entry(id)
	return func(queryID string, windowEnd int64, schema relation.Schema, cb *relation.ColBatch) {
		dup := func() bool {
			e.mu.Lock()
			defer e.mu.Unlock() // a panicking sink must not wedge the gate
			if e.seen && windowEnd <= e.hwm {
				return true
			}
			next(queryID, windowEnd, schema, cb)
			e.hwm, e.seen = windowEnd, true
			return false
		}()
		if dup {
			g.deduped.Inc()
			return
		}
		g.emitted.Inc()
		if afterEmit != nil {
			afterEmit(queryID, windowEnd)
		}
	}
}

// HWM returns a query's emitted high-water mark; ok is false when it
// has not emitted any window yet.
func (g *Gate) HWM(id string) (hwm int64, ok bool) {
	e := g.entry(id)
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.hwm, e.seen
}

// SnapshotHWM copies every query's mark (queries with no emission yet
// are omitted), for inclusion in a checkpoint.
func (g *Gate) SnapshotHWM() map[string]int64 {
	g.mu.Lock()
	entries := make(map[string]*gateEntry, len(g.queries))
	for id, e := range g.queries {
		entries[id] = e
	}
	g.mu.Unlock()
	out := make(map[string]int64, len(entries))
	for id, e := range entries {
		e.mu.Lock()
		if e.seen {
			out[id] = e.hwm
		}
		e.mu.Unlock()
	}
	return out
}

// Forget drops a query's mark (on unregister).
func (g *Gate) Forget(id string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	delete(g.queries, id)
}
