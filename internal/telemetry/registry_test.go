package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"testing"
	"time"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("a.b")
	c.Inc()
	c.Add(4)
	if got := r.Counter("a.b").Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	g := r.Gauge("a.g")
	g.Set(2.5)
	g.Add(-1)
	if got := g.Value(); got != 1.5 {
		t.Errorf("gauge = %v, want 1.5", got)
	}
	if r.Counter("a.b") != c {
		t.Error("counter identity not stable across lookups")
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", []float64{10, 20, 50})
	for _, v := range []float64{1, 10, 11, 20, 21, 50, 51, 1000} {
		h.Observe(v)
	}
	s := h.Snapshot()
	// Buckets: (-inf,10] (10,20] (20,50] (50,+inf)
	want := []int64{2, 2, 2, 2}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Errorf("bucket %d = %d, want %d (all: %v)", i, s.Counts[i], w, s.Counts)
		}
	}
	if s.Count != 8 {
		t.Errorf("count = %d, want 8", s.Count)
	}
	if s.Sum != 1164 {
		t.Errorf("sum = %v, want 1164", s.Sum)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	r := NewRegistry()
	// 1-unit buckets 1..100: quantile interpolation should land within
	// one bucket width of the exact order statistic.
	bounds := make([]float64, 100)
	for i := range bounds {
		bounds[i] = float64(i + 1)
	}
	h := r.Histogram("q", bounds)
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i))
	}
	s := h.Snapshot()
	for _, tc := range []struct{ q, want float64 }{
		{0.50, 50}, {0.95, 95}, {0.99, 99}, {1.0, 100},
	} {
		got := s.Quantile(tc.q)
		if got < tc.want-1 || got > tc.want+1 {
			t.Errorf("q%.2f = %v, want %v±1", tc.q, got, tc.want)
		}
	}
	if s.P50 != s.Quantile(0.50) || s.P95 != s.Quantile(0.95) || s.P99 != s.Quantile(0.99) {
		t.Error("precomputed quantiles disagree with Quantile()")
	}
	// Overflow bucket clamps to the last finite bound.
	h2 := r.Histogram("q2", []float64{1})
	h2.Observe(1e9)
	if got := h2.Snapshot().Quantile(0.99); got != 1 {
		t.Errorf("overflow quantile = %v, want 1 (last finite bound)", got)
	}
	// Empty histogram quantiles are 0, not NaN.
	if got := r.Histogram("empty", []float64{1}).Snapshot().Quantile(0.5); got != 0 {
		t.Errorf("empty quantile = %v, want 0", got)
	}
}

func TestMerge(t *testing.T) {
	a, b := NewRegistry(), NewRegistry()
	a.Counter("c").Add(3)
	b.Counter("c").Add(4)
	b.Counter("only_b").Inc()
	a.Gauge("g").Set(1)
	b.Gauge("g").Set(2)
	a.Histogram("h", []float64{10, 20}).Observe(5)
	b.Histogram("h", []float64{10, 20}).Observe(15)
	m := Merge(a.Snapshot(), b.Snapshot())
	if m.Counters["c"] != 7 || m.Counters["only_b"] != 1 {
		t.Errorf("merged counters = %v", m.Counters)
	}
	if m.Gauges["g"] != 3 {
		t.Errorf("merged gauge = %v, want 3", m.Gauges["g"])
	}
	h := m.Histograms["h"]
	if h.Count != 2 || h.Counts[0] != 1 || h.Counts[1] != 1 {
		t.Errorf("merged histogram = %+v", h)
	}
}

// Gauges whose value is not additive across nodes — lags (*_ms, *_ns),
// states (*.state) and byte footprints (*.bytes) — merge by max: the
// cluster-wide checkpoint age is the worst node's, not the fleet total.
func TestMergeGaugeMax(t *testing.T) {
	a, b := NewRegistry(), NewRegistry()
	a.Gauge("recovery.checkpoint.age_ms").Set(120)
	b.Gauge("recovery.checkpoint.age_ms").Set(80)
	a.Gauge("cluster.node.0.state").Set(2)
	b.Gauge("cluster.node.0.state").Set(1)
	a.Gauge("node.inbox.len").Set(3)
	b.Gauge("node.inbox.len").Set(4)
	a.Gauge("recovery.checkpoint.bytes").Set(4096)
	b.Gauge("recovery.checkpoint.bytes").Set(1024)
	m := Merge(a.Snapshot(), b.Snapshot())
	if got := m.Gauges["recovery.checkpoint.age_ms"]; got != 120 {
		t.Errorf("lag gauge merged to %v, want max 120", got)
	}
	if got := m.Gauges["cluster.node.0.state"]; got != 2 {
		t.Errorf("state gauge merged to %v, want max 2", got)
	}
	if got := m.Gauges["node.inbox.len"]; got != 7 {
		t.Errorf("occupancy gauge merged to %v, want sum 7", got)
	}
	if got := m.Gauges["recovery.checkpoint.bytes"]; got != 4096 {
		t.Errorf("bytes gauge merged to %v, want max 4096", got)
	}
}

// Merging histograms with different bucket layouts keeps the receiver's
// buckets and folds the other's Count/Sum only; quantiles must still
// describe the receiver's bucketed samples instead of skewing toward
// the last bound because the rank was based on the inflated Count.
func TestMergeHistogramMismatchedBounds(t *testing.T) {
	a, b := NewRegistry(), NewRegistry()
	ha := a.Histogram("h", []float64{10, 20, 50})
	for i := 0; i < 100; i++ {
		ha.Observe(5) // all samples in the first bucket
	}
	hb := b.Histogram("h", []float64{1, 2})
	for i := 0; i < 100; i++ {
		hb.Observe(1)
	}
	m := Merge(a.Snapshot(), b.Snapshot())
	h := m.Histograms["h"]
	if h.Count != 200 || h.Sum != 600 {
		t.Errorf("merged totals = count %d sum %v, want 200/600", h.Count, h.Sum)
	}
	// Receiver's samples all sit in (0,10]; P99 must stay there rather
	// than jumping to the 50 bound.
	if h.P99 > 10 {
		t.Errorf("mismatched-merge P99 = %v, want <= 10", h.P99)
	}
}

// TestConcurrentRegistry exercises get-or-create, writes, and snapshots
// from many goroutines; run under -race (the CI race recipe covers it).
func TestConcurrentRegistry(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Counter("shared").Inc()
				r.Counter(fmt.Sprintf("own.%d", w)).Inc()
				r.Gauge("g").Set(float64(i))
				r.Histogram("h", LatencyBuckets).Observe(float64(i))
				if i%100 == 0 {
					_ = r.Snapshot()
				}
			}
		}(w)
	}
	wg.Wait()
	s := r.Snapshot()
	if s.Counters["shared"] != 8000 {
		t.Errorf("shared counter = %d, want 8000", s.Counters["shared"])
	}
	if s.Histograms["h"].Count != 8000 {
		t.Errorf("histogram count = %d, want 8000", s.Histograms["h"].Count)
	}
}

func TestHTTPHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("exastream.windows_executed").Add(42)
	tr := NewTracer(4)
	sp := tr.Start("q1").StartSpan("rewrite")
	sp.SetAttr("ucq_size", 3)
	sp.End()
	srv, addr, err := Serve("127.0.0.1:0", HandlerConfig{Snapshot: r.Snapshot, Traces: tr.Snapshots})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl := &http.Client{Timeout: 5 * time.Second}

	resp, err := cl.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var snap Snapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("metrics not JSON: %v\n%s", err, body)
	}
	if snap.Counters["exastream.windows_executed"] != 42 {
		t.Errorf("served counter = %v", snap.Counters)
	}

	resp, err = cl.Get("http://" + addr + "/traces")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	var traces []TraceSnapshot
	if err := json.Unmarshal(body, &traces); err != nil {
		t.Fatalf("traces not JSON: %v\n%s", err, body)
	}
	if len(traces) != 1 || traces[0].ID != "q1" || len(traces[0].Spans) != 1 {
		t.Errorf("traces = %+v", traces)
	}

	resp, err = cl.Get("http://" + addr + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("pprof status = %d", resp.StatusCode)
	}
}

// A host-less addr must bind loopback, not every interface — the
// endpoint serves pprof unauthenticated.
func TestServeHostlessAddrBindsLoopback(t *testing.T) {
	srv, addr, err := Serve(":0", HandlerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	host, _, err := net.SplitHostPort(addr)
	if err != nil {
		t.Fatal(err)
	}
	if ip := net.ParseIP(host); ip == nil || !ip.IsLoopback() {
		t.Errorf("bound host = %q, want loopback", host)
	}
}
