package telemetry

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
)

func TestTraceLifecycle(t *testing.T) {
	tr := NewTracer(8)
	trace := tr.Start("task1")
	for _, name := range []string{"rewrite", "unfold", "register"} {
		trace.StartSpan(name).End()
	}
	sp := trace.StartSpan("window-exec")
	sp.SetAttr("window_end", int64(1000)).SetAttr("rows_out", 3)
	sp.End()
	sp.End() // idempotent: must not double-record

	got := tr.Trace("task1").SpanNames()
	want := []string{"rewrite", "unfold", "register", "window-exec"}
	if len(got) != len(want) {
		t.Fatalf("spans = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d = %q, want %q", i, got[i], want[i])
		}
	}
	snap := trace.Snapshot()
	w, ok := snap.FirstSpan("window-exec")
	if !ok || w.Attrs["window_end"] != int64(1000) || w.Attrs["rows_out"] != 3 {
		t.Errorf("window span = %+v", w)
	}
	if w.DurationNS < 0 {
		t.Errorf("negative duration %d", w.DurationNS)
	}
}

func TestTraceSpanRing(t *testing.T) {
	// Ten spans wrap a ring of four once; seventeen wrap it more than
	// once and stop between two wraps.
	for _, n := range []int{10, 17} {
		tr := NewTracer(1)
		trace := tr.Start("q")
		trace.maxSpans = 4
		for i := 0; i < n; i++ {
			trace.StartSpan(fmt.Sprintf("s%d", i)).End()
		}
		snap := trace.Snapshot()
		if len(snap.Spans) != 4 {
			t.Fatalf("n=%d: retained %d spans, want 4", n, len(snap.Spans))
		}
		if snap.Dropped != int64(n-4) {
			t.Errorf("n=%d: dropped = %d, want %d", n, snap.Dropped, n-4)
		}
		want := make([]string, 4)
		for i := range want {
			want[i] = fmt.Sprintf("s%d", n-4+i)
		}
		if got := snap.SpanNames(); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("n=%d: snapshot kept %v, want %v oldest first", n, got, want)
		}
		if got := trace.SpanNames(); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("n=%d: SpanNames = %v, want %v oldest first", n, got, want)
		}
	}
}

func TestTracerCapacityAndRestart(t *testing.T) {
	tr := NewTracer(2)
	tr.Start("a").StartSpan("x").End()
	tr.Start("b")
	tr.Start("c") // evicts a
	if tr.Trace("a") != nil {
		t.Error("oldest trace not evicted")
	}
	if len(tr.Snapshots()) != 2 {
		t.Errorf("retained %d traces, want 2", len(tr.Snapshots()))
	}
	// Restarting an id reuses the slot and clears old spans.
	b := tr.Start("b")
	b.StartSpan("y").End()
	if names := tr.Trace("b").SpanNames(); len(names) != 1 || names[0] != "y" {
		t.Errorf("restarted trace spans = %v", names)
	}
}

type collectExporter struct {
	mu    sync.Mutex
	spans []string
}

func (c *collectExporter) ExportSpan(traceID string, s SpanSnapshot) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.spans = append(c.spans, traceID+"/"+s.Name)
}

func TestExporter(t *testing.T) {
	tr := NewTracer(4)
	exp := &collectExporter{}
	tr.SetExporter(exp)
	tr.Start("q").StartSpan("rewrite").End()
	tr.Trace("q").StartSpan("window-exec").End()
	exp.mu.Lock()
	defer exp.mu.Unlock()
	if len(exp.spans) != 2 || exp.spans[0] != "q/rewrite" || exp.spans[1] != "q/window-exec" {
		t.Errorf("exported = %v", exp.spans)
	}
}

// Nil receivers are safe no-ops so instrumentation sites need no
// conditionals.
func TestNilSafety(t *testing.T) {
	var tracer *Tracer
	trace := tracer.Start("x")
	if trace != nil {
		t.Fatal("nil tracer returned a trace")
	}
	span := trace.StartSpan("s")
	span.SetAttr("k", 1)
	span.End()
	_ = trace.Snapshot()
	_ = tracer.Trace("x")
	_ = tracer.Snapshots()
	tracer.SetExporter(nil)
}

// Regression: ending a span (trace.mu, exporter lookup) while the same
// query id is re-registered (tracer.mu → trace.mu) used to deadlock via
// lock-order inversion — record held tr.mu and then took tracer.mu for
// the exporter. With an exporter installed, both lock edges are
// exercised; the test hangs (and times out) if the inversion returns.
func TestRestartWhileEndingNoDeadlock(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	tr := NewTracer(4)
	tr.SetExporter(&collectExporter{})
	trace := tr.Start("q")
	const iters = 100000
	done := make(chan struct{}, 2)
	go func() {
		for i := 0; i < iters; i++ {
			trace.StartSpan("window-exec").End()
			if i%64 == 0 {
				runtime.Gosched()
			}
		}
		done <- struct{}{}
	}()
	go func() {
		for i := 0; i < iters; i++ {
			tr.Start("q")
			if i%64 == 0 {
				runtime.Gosched()
			}
		}
		done <- struct{}{}
	}()
	for i := 0; i < 2; i++ {
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			t.Fatal("deadlock: span End racing Tracer.Start did not finish")
		}
	}
}

func TestConcurrentTracing(t *testing.T) {
	tr := NewTracer(16)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			trace := tr.Start(fmt.Sprintf("q%d", w%4))
			for i := 0; i < 200; i++ {
				trace.StartSpan("window-exec").SetAttr("i", i).End()
				if i%50 == 0 {
					_ = tr.Snapshots()
				}
			}
		}(w)
	}
	wg.Wait()
}
