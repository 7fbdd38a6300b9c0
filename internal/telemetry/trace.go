package telemetry

import (
	"sync"
	"time"
)

// The span tracer covers the STARQL query lifecycle: one Trace per
// registered query, carrying the one-shot pipeline spans
// (rewrite → unfold → bindings → register) followed by an ongoing
// stream of window-exec spans. Window spans arrive forever, so each
// trace retains a bounded ring of the most recent completed spans and
// counts the evicted rest; the Tracer itself retains a bounded ring of
// traces. An optional Exporter observes every completed span as it
// ends (for shipping to external collectors).
//
// All Trace/Span methods are nil-receiver-safe no-ops, so call sites
// instrument unconditionally:
//
//	span := tracer.Trace(queryID).StartSpan("window-exec") // tracer or trace may be nil
//	span.SetAttr("rows_out", n)
//	span.End()

// Exporter observes completed spans. Implementations must be safe for
// concurrent use and must not block: ExportSpan runs on the execution
// path that ended the span.
type Exporter interface {
	ExportSpan(traceID string, s SpanSnapshot)
}

// Tracer retains the most recent traces, one per query id.
type Tracer struct {
	mu       sync.Mutex
	traces   map[string]*Trace
	order    []string // insertion order for eviction
	capacity int
	maxSpans int
	exporter Exporter
}

const (
	defaultTraceCapacity = 64
	defaultSpansPerTrace = 256
)

// NewTracer returns a tracer retaining at most capacity traces
// (<= 0 means the default, 64).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = defaultTraceCapacity
	}
	return &Tracer{
		traces:   make(map[string]*Trace),
		capacity: capacity,
		maxSpans: defaultSpansPerTrace,
	}
}

// SetExporter installs the span exporter (nil disables export).
func (t *Tracer) SetExporter(e Exporter) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.exporter = e
	t.mu.Unlock()
}

// Start begins (or restarts) the trace for a query id, evicting the
// oldest trace beyond capacity.
func (t *Tracer) Start(id string) *Trace {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	old, ok := t.traces[id]
	if !ok {
		tr := &Trace{ID: id, tracer: t, maxSpans: t.maxSpans}
		t.traces[id] = tr
		t.order = append(t.order, id)
		for len(t.order) > t.capacity {
			delete(t.traces, t.order[0])
			t.order = t.order[1:]
		}
		t.mu.Unlock()
		return tr
	}
	// Restarted query: reuse the slot, drop the old spans. Reset outside
	// t.mu so this method never holds tracer and trace locks together
	// (record orders exporter lookup before tr.mu for the same reason).
	t.mu.Unlock()
	old.mu.Lock()
	old.spans = nil
	old.head = 0
	old.dropped = 0
	old.mu.Unlock()
	return old
}

// Trace returns the retained trace for a query id, or nil.
func (t *Tracer) Trace(id string) *Trace {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.traces[id]
}

// Snapshots returns the retained traces, oldest first.
func (t *Tracer) Snapshots() []TraceSnapshot {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	ids := append([]string(nil), t.order...)
	traces := make([]*Trace, 0, len(ids))
	for _, id := range ids {
		traces = append(traces, t.traces[id])
	}
	t.mu.Unlock()
	out := make([]TraceSnapshot, 0, len(traces))
	for _, tr := range traces {
		out = append(out, tr.Snapshot())
	}
	return out
}

// Trace is the span record of one query's lifecycle.
type Trace struct {
	ID     string
	tracer *Tracer

	mu       sync.Mutex
	spans    []SpanSnapshot // completed spans, a ring of at most maxSpans
	head     int            // the oldest span's slot once the ring is full
	dropped  int64          // completed spans evicted from the ring
	maxSpans int
}

// ordered returns the retained spans oldest first, in a new slice.
// Callers hold tr.mu.
func (tr *Trace) ordered() []SpanSnapshot {
	out := make([]SpanSnapshot, 0, len(tr.spans))
	out = append(out, tr.spans[tr.head:]...)
	return append(out, tr.spans[:tr.head]...)
}

// StartSpan opens a span on the trace. The span is recorded when End
// is called; an un-ended span is never retained.
func (tr *Trace) StartSpan(name string) *Span {
	if tr == nil {
		return nil
	}
	return &Span{trace: tr, name: name, start: time.Now()}
}

// Snapshot copies the trace's completed spans.
func (tr *Trace) Snapshot() TraceSnapshot {
	if tr == nil {
		return TraceSnapshot{}
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return TraceSnapshot{
		ID:      tr.ID,
		Spans:   tr.ordered(),
		Dropped: tr.dropped,
	}
}

// SpanNames returns the names of the retained spans in completion
// order (convenience for tests asserting lifecycle coverage).
func (tr *Trace) SpanNames() []string {
	if tr == nil {
		return nil
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	out := make([]string, len(tr.spans))
	for i, s := range tr.ordered() {
		out[i] = s.Name
	}
	return out
}

func (tr *Trace) record(s SpanSnapshot) {
	// Resolve the exporter before taking tr.mu: currentExporter locks
	// tracer.mu, and Tracer.Start locks tracer.mu then tr.mu, so taking
	// them here in the opposite order would deadlock a span ending while
	// its query is re-registered.
	exp := tr.tracer.currentExporter()
	tr.mu.Lock()
	if len(tr.spans) < tr.maxSpans {
		tr.spans = append(tr.spans, s)
	} else {
		// Full: the new span takes the oldest one's slot.
		tr.spans[tr.head] = s
		tr.head = (tr.head + 1) % len(tr.spans)
		tr.dropped++
	}
	tr.mu.Unlock()
	if exp != nil {
		exp.ExportSpan(tr.ID, s)
	}
}

func (t *Tracer) currentExporter() Exporter {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.exporter
}

// Span is one in-flight operation within a trace. Not safe for
// concurrent use; each execution owns its span.
type Span struct {
	trace *Trace
	name  string
	start time.Time
	attrs map[string]any
	ended bool
}

// SetAttr attaches a key/value attribute; returns the span for
// chaining.
func (s *Span) SetAttr(key string, value any) *Span {
	if s == nil {
		return nil
	}
	if s.attrs == nil {
		s.attrs = make(map[string]any, 4)
	}
	s.attrs[key] = value
	return s
}

// End completes the span and records it on the trace. End is
// idempotent; only the first call records.
func (s *Span) End() {
	if s == nil || s.ended {
		return
	}
	s.ended = true
	s.trace.record(SpanSnapshot{
		Name:       s.name,
		Start:      s.start,
		DurationNS: time.Since(s.start).Nanoseconds(),
		Attrs:      s.attrs,
	})
}

// SpanSnapshot is one completed span.
type SpanSnapshot struct {
	Name       string         `json:"name"`
	Start      time.Time      `json:"start"`
	DurationNS int64          `json:"duration_ns"`
	Attrs      map[string]any `json:"attrs,omitempty"`
}

// TraceSnapshot is one trace's retained spans.
type TraceSnapshot struct {
	ID      string         `json:"id"`
	Spans   []SpanSnapshot `json:"spans"`
	Dropped int64          `json:"dropped_spans,omitempty"`
}

// SpanNames lists the snapshot's span names in completion order.
func (ts TraceSnapshot) SpanNames() []string {
	out := make([]string, len(ts.Spans))
	for i, s := range ts.Spans {
		out[i] = s.Name
	}
	return out
}

// FirstSpan returns the first retained span with the given name.
func (ts TraceSnapshot) FirstSpan(name string) (SpanSnapshot, bool) {
	for _, s := range ts.Spans {
		if s.Name == name {
			return s, true
		}
	}
	return SpanSnapshot{}, false
}
