package telemetry

import (
	"sync"
	"testing"
)

func TestRecorderRingOrder(t *testing.T) {
	r := NewRecorder(3, 4)
	for i := int64(0); i < 3; i++ {
		r.Record(EvWindowExec, "q1", "acme", i*1000, i)
	}
	if got := r.Len(); got != 3 {
		t.Fatalf("Len = %d, want 3", got)
	}
	evs := r.Events()
	if len(evs) != 3 {
		t.Fatalf("Events len = %d, want 3", len(evs))
	}
	for i, ev := range evs {
		if ev.Seq != uint64(i+1) {
			t.Errorf("event %d: Seq = %d, want %d", i, ev.Seq, i+1)
		}
		if ev.Kind != "window_exec" {
			t.Errorf("event %d: Kind = %q, want window_exec", i, ev.Kind)
		}
		if ev.Node != 3 {
			t.Errorf("event %d: Node = %d, want 3", i, ev.Node)
		}
		if ev.Query != "q1" || ev.Tenant != "acme" {
			t.Errorf("event %d: attribution = %q/%q", i, ev.Query, ev.Tenant)
		}
		if ev.WindowEnd != int64(i)*1000 || ev.Value != int64(i) {
			t.Errorf("event %d: WindowEnd=%d Value=%d", i, ev.WindowEnd, ev.Value)
		}
	}
}

func TestRecorderRingWrap(t *testing.T) {
	r := NewRecorder(0, 4)
	for i := int64(0); i < 10; i++ {
		r.Record(EvCheckpoint, "", "", 0, i)
	}
	if got := r.Len(); got != 4 {
		t.Fatalf("Len after wrap = %d, want 4", got)
	}
	evs := r.Events()
	if len(evs) != 4 {
		t.Fatalf("Events len = %d, want 4", len(evs))
	}
	// The ring keeps the newest 4 of 10, oldest first: values 6..9.
	for i, ev := range evs {
		if want := int64(6 + i); ev.Value != want {
			t.Errorf("event %d: Value = %d, want %d", i, ev.Value, want)
		}
		if want := uint64(7 + i); ev.Seq != want {
			t.Errorf("event %d: Seq = %d, want %d", i, ev.Seq, want)
		}
	}
}

func TestRecorderDisabled(t *testing.T) {
	var r *Recorder // the disabled recorder
	r.Record(EvFailover, "q", "t", 1, 2)
	if r.Len() != 0 {
		t.Errorf("nil recorder Len = %d, want 0", r.Len())
	}
	if evs := r.Events(); evs != nil {
		t.Errorf("nil recorder Events = %v, want nil", evs)
	}
	if got := NewRecorder(1, 0); got != nil {
		t.Errorf("NewRecorder(capacity=0) = %v, want nil", got)
	}
	if got := NewRecorder(1, -5); got != nil {
		t.Errorf("NewRecorder(capacity<0) = %v, want nil", got)
	}
}

func TestEventKindNames(t *testing.T) {
	want := map[EventKind]string{
		EvWindowExec:      "window_exec",
		EvDegradeShed:     "degrade_shed",
		EvCheckpoint:      "checkpoint",
		EvRestore:         "restore",
		EvFailover:        "failover",
		EvQuarantine:      "quarantine",
		EvAdmissionReject: "admission_reject",
		EvRestart:         "restart",
	}
	for k, name := range want {
		if k.String() != name {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), name)
		}
	}
	if got := numEventKinds.String(); got != "unknown" {
		t.Errorf("out-of-range kind String() = %q, want unknown", got)
	}
}

func TestMergeEvents(t *testing.T) {
	a := []Event{
		{Seq: 1, TimeUnix: 10, Node: 0},
		{Seq: 2, TimeUnix: 30, Node: 0},
	}
	b := []Event{
		{Seq: 1, TimeUnix: 20, Node: 1},
		{Seq: 2, TimeUnix: 30, Node: 1},
	}
	merged := MergeEvents(a, b)
	if len(merged) != 4 {
		t.Fatalf("merged len = %d, want 4", len(merged))
	}
	wantOrder := []struct {
		t    int64
		node int
	}{{10, 0}, {20, 1}, {30, 0}, {30, 1}}
	for i, w := range wantOrder {
		if merged[i].TimeUnix != w.t || merged[i].Node != w.node {
			t.Errorf("merged[%d] = (t=%d node=%d), want (t=%d node=%d)",
				i, merged[i].TimeUnix, merged[i].Node, w.t, w.node)
		}
	}
	if got := MergeEvents(); len(got) != 0 {
		t.Errorf("MergeEvents() = %v, want empty", got)
	}
}

// TestRecorderConcurrent exercises the ring under contention so `go
// test -race` covers concurrent Record/Events/Len interleavings.
func TestRecorderConcurrent(t *testing.T) {
	r := NewRecorder(0, 64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := int64(0); i < 500; i++ {
				r.Record(EvWindowExec, "q", "", i, int64(g))
				if i%100 == 0 {
					r.Events()
					r.Len()
				}
			}
		}(g)
	}
	wg.Wait()
	if got := r.Len(); got != 64 {
		t.Fatalf("Len = %d, want full ring of 64", got)
	}
	evs := r.Events()
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq <= evs[i-1].Seq {
			t.Fatalf("events out of order at %d: seq %d then %d", i, evs[i-1].Seq, evs[i].Seq)
		}
	}
}

// TestRecorderDisabledAllocs pins the acceptance criterion that the
// disabled (nil) recorder path performs zero allocations.
func TestRecorderDisabledAllocs(t *testing.T) {
	var r *Recorder
	allocs := testing.AllocsPerRun(1000, func() {
		r.Record(EvWindowExec, "q0001", "tenant", 5000, 123456)
	})
	if allocs != 0 {
		t.Fatalf("disabled Record allocates %.1f per call, want 0", allocs)
	}
}

// TestRecorderEnabledAllocs checks the enabled path allocates nothing
// beyond the preallocated ring (strings are retained, not copied).
func TestRecorderEnabledAllocs(t *testing.T) {
	r := NewRecorder(0, 128)
	allocs := testing.AllocsPerRun(1000, func() {
		r.Record(EvWindowExec, "q0001", "tenant", 5000, 123456)
	})
	if allocs != 0 {
		t.Fatalf("enabled Record allocates %.1f per call, want 0", allocs)
	}
}

// BenchmarkCounterAdd pins the per-event cost of the hot metric
// counter increment (an atomic add).
func BenchmarkCounterAdd(b *testing.B) {
	r := NewRegistry()
	c := r.Counter("bench.counter")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}

// BenchmarkRecorderDisabled pins the disabled-recorder cost on hot
// paths: a nil check, no allocations.
func BenchmarkRecorderDisabled(b *testing.B) {
	var r *Recorder
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Record(EvWindowExec, "q0001", "", int64(i), 42)
	}
}

// BenchmarkRecorderEnabled pins the enabled-recorder cost: one mutexed
// ring write per event.
func BenchmarkRecorderEnabled(b *testing.B) {
	r := NewRecorder(0, 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Record(EvWindowExec, "q0001", "", int64(i), 42)
	}
}
