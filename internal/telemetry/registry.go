// Package telemetry is the observability substrate of the reproduction:
// a dependency-free metrics registry (counters, gauges, fixed-bucket
// latency histograms) plus a lightweight span tracer for the STARQL
// query lifecycle (see trace.go). Every runtime layer — starql
// enrichment/unfolding, the relational engine, the ExaStream DSMS, and
// the cluster runtime — records into a Registry; snapshots merge across
// layers and nodes into the single document core/optique exposes and
// the opt-in HTTP endpoint serves (http.go).
//
// Design constraints, in order: hot-path writes must cost one atomic
// add (the instruments are plain structs the caller resolves once, not
// name lookups per event); reads must never block writers; and the
// package must not import anything beyond the standard library.
//
// Metric names are dot-separated hierarchies, `<layer>.<subsystem>.<what>`,
// e.g. `exastream.plan.cache_hits` or `cluster.node.3.state`. Counters
// are monotonic, gauges are instantaneous values, histograms observe
// float64 samples (durations are recorded in nanoseconds). The name
// suffix carries a gauge's cross-node merge rule: `_ms`, `_ns`,
// `.state` and `.bytes` gauges merge by max, everything else sums (see
// Merge).
package telemetry

import (
	"math"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be >= 0 for the value to stay monotonic).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an instantaneous float64 value (occupancy, lag, state).
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add shifts the gauge by d.
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Registry is a concurrency-safe, get-or-create collection of named
// instruments. Instruments are cheap; resolve them once and keep the
// pointer on the hot path.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c, ok := r.counters[name]
	r.mu.RUnlock()
	if ok {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok = r.counters[name]; ok {
		return c
	}
	c = &Counter{}
	r.counters[name] = c
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.RLock()
	g, ok := r.gauges[name]
	r.mu.RUnlock()
	if ok {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok = r.gauges[name]; ok {
		return g
	}
	g = &Gauge{}
	r.gauges[name] = g
	return g
}

// Histogram returns the named histogram, creating it with the given
// bucket upper bounds on first use. Later calls return the existing
// histogram whatever bounds they pass, so concurrent creators agree.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	r.mu.RLock()
	h, ok := r.hists[name]
	r.mu.RUnlock()
	if ok {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok = r.hists[name]; ok {
		return h
	}
	h = newHistogram(bounds)
	r.hists[name] = h
	return h
}

// Snapshot is a point-in-time structured document of a registry's
// metrics — what core/optique consume and /metrics serves as JSON.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]float64           `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot captures every instrument's current value. Individual reads
// are atomic; the document as a whole is a consistent-enough view for
// monitoring (writers are never blocked).
func (r *Registry) Snapshot() Snapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s := Snapshot{
		Counters:   make(map[string]int64, len(r.counters)),
		Gauges:     make(map[string]float64, len(r.gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(r.hists)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		s.Histograms[name] = h.Snapshot()
	}
	return s
}

// Merge combines snapshots from several registries (e.g. one per
// cluster node) into cluster-wide totals: counters and histogram
// buckets sum. Gauges merge by name convention — count-style occupancy
// gauges sum (a total across nodes is meaningful), but
// lag/latency gauges (`*_ms`, `*_ns` suffix), state gauges (`*.state`
// suffix) and byte-footprint gauges (`*.bytes` suffix) take the
// maximum, because summing per-node lags or node states
// produces a number with no meaning, and the interesting byte figure
// is the node closest to its budget.
// Per-node gauges use distinct names (`cluster.node.N.*`) so they pass
// through unchanged either way.
func Merge(snaps ...Snapshot) Snapshot {
	out := Snapshot{
		Counters:   make(map[string]int64),
		Gauges:     make(map[string]float64),
		Histograms: make(map[string]HistogramSnapshot),
	}
	for _, s := range snaps {
		for name, v := range s.Counters {
			out.Counters[name] += v
		}
		for name, v := range s.Gauges {
			cur, seen := out.Gauges[name]
			switch {
			case !seen:
				out.Gauges[name] = v
			case gaugeMergesByMax(name):
				out.Gauges[name] = math.Max(cur, v)
			default:
				out.Gauges[name] = cur + v
			}
		}
		for name, h := range s.Histograms {
			out.Histograms[name] = out.Histograms[name].merge(h)
		}
	}
	return out
}

// gaugeMergesByMax reports whether a gauge's cross-node merge takes the
// maximum instead of the sum: lag and latency gauges (named `*_ms` or
// `*_ns`), state gauges (`*.state`) and occupancy gauges (`*.bytes`,
// e.g. the last checkpoint's size) are not additive — the cluster-wide
// value of a lag or a high-water mark is its worst node, not the
// total.
func gaugeMergesByMax(name string) bool {
	return strings.HasSuffix(name, "_ms") ||
		strings.HasSuffix(name, "_ns") ||
		strings.HasSuffix(name, ".state") ||
		strings.HasSuffix(name, ".bytes")
}
