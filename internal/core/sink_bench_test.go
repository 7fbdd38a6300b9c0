package core

import (
	"strings"
	"testing"

	"repro/internal/exastream"
	"repro/internal/relation"
	"repro/internal/siemens"
)

// BenchmarkWindowSink times the per-window STARQL stage of the five
// Figure 1 monotonic tasks: each task's sink (read the task's flat
// sequence from the window, evaluate HAVING per binding, emit CONSTRUCT
// triples) over one 10 s msmt_a window of a 40-turbine fleet sampled
// every 500 ms, with a planted ramp so the matcher also finds alerts.
// One op is one window through all five sinks; allocations are
// reported because the sink's allocations are most of what the
// benchmark's alloc_bytes_per_tuple charges on the stream path.
func BenchmarkWindowSink(b *testing.B) {
	cfg := siemens.SmallConfig()
	cfg.Turbines = 40
	gen, err := siemens.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	cat, err := gen.StaticCatalog()
	if err != nil {
		b.Fatal(err)
	}
	sys, err := NewSystem(Config{Nodes: 1}, siemens.TBox(), siemens.Mappings(), cat)
	if err != nil {
		b.Fatal(err)
	}
	defer sys.Close()
	schema := siemens.StreamSchemas()[0]
	if err := sys.DeclareStream(schema); err != nil {
		b.Fatal(err)
	}
	var sinks []exastream.Sink
	for _, task := range siemens.Catalog() {
		if !strings.Contains(task.ID, "_mon_") {
			continue
		}
		reg, err := sys.RegisterTask(task.ID, task.Query, nil)
		if err != nil {
			b.Fatal(err)
		}
		sinks = append(sinks, sys.windowSink(reg))
	}
	if len(sinks) != 5 {
		b.Fatalf("%d monotonic tasks, want 5", len(sinks))
	}
	const rangeMS = 10_000
	tuples, routeA, err := gen.Generate(siemens.StreamConfig{
		FromMS: 0, ToMS: rangeMS, StepMS: 500, Seed: 1,
		Events: gen.PlantDefaultEvents(-rangeMS, rangeMS),
	})
	if err != nil {
		b.Fatal(err)
	}
	var rows []relation.Tuple
	for i, el := range tuples {
		if routeA[i] {
			rows = append(rows, el.Row)
		}
	}
	cb := relation.Transpose(rows)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, sink := range sinks {
			sink("", rangeMS, schema.Tuple, cb)
		}
	}
	b.StopTimer()
	var alerts int64
	for _, id := range sys.TaskIDs() {
		t, _ := sys.Task(id)
		alerts += t.Answers()
	}
	if alerts == 0 {
		b.Fatal("no alerts: the window exercises no matching path")
	}
	b.ReportMetric(float64(len(rows)), "rows/window")
}
