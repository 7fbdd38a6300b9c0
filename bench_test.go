// Benchmarks regenerating the paper's evaluation artefacts; each
// Benchmark maps to an experiment id in DESIGN.md (E1–E12) and the
// recorded results live in EXPERIMENTS.md. The cmd/optique-bench tool
// runs the larger sweeps (full 1..1024 queries, 1..128 nodes).
package optique_test

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	optique "repro"
	"repro/internal/bootstrap"
	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/exastream"
	"repro/internal/lsh"
	"repro/internal/obda/cq"
	"repro/internal/obda/mapping"
	"repro/internal/obda/rewrite"
	"repro/internal/ontology"
	"repro/internal/rdf"
	"repro/internal/relation"
	"repro/internal/siemens"
	"repro/internal/sql"
	"repro/internal/starql"
	"repro/internal/stream"
)

// ---- E1: Figure 1 end to end ----

// BenchmarkFigure1EndToEnd measures one full replay of the paper's
// Figure 1 diagnostic task on a small fleet: registration amortised out,
// cost per ingested tuple reported. "default" is the production
// configuration and the baseline every other dimension is priced
// against.
func BenchmarkFigure1EndToEnd(b *testing.B) {
	b.Run("default", func(b *testing.B) {
		runFigure1(b, optique.Config{Nodes: 1})
	})
	// The recorder dimension prices the flight recorder on the ingest
	// path against the recorder-off default; the acceptance bar is ≤5%
	// over that baseline.
	b.Run("recorder=on", func(b *testing.B) {
		runFigure1(b, optique.Config{Nodes: 1, FlightRecorder: 256})
	})
	// The transport dimension prices the framed TCP node transport over
	// loopback — length-prefixed checksummed frames, per-session seqs,
	// acks, heartbeats — against the in-process channel hop (default
	// doubles as the transport=channel baseline). The acceptance bar is
	// ≤15% ingest overhead over that baseline.
	b.Run("transport=tcp", func(b *testing.B) {
		runFigure1(b, optique.Config{Nodes: 1, Transport: cluster.TransportTCP})
	})
	// The windowexec dimension isolates the window-execution path: the
	// task's unfolded low-level fleet (Translation.StreamFleet — what the
	// paper's engineers wrote by hand) registered directly on one
	// ExaStream engine, with no cluster queue and no STARQL sequence
	// matcher in front, so ns/op is dominated by per-window plan cost on
	// the columnar batch path.
	b.Run("windowexec/pipeline=vectorized", func(b *testing.B) {
		runFigure1WindowExec(b, exastream.Options{})
	})
}

func runFigure1WindowExec(b *testing.B, opts exastream.Options) {
	gen, err := siemens.New(siemens.SmallConfig())
	if err != nil {
		b.Fatal(err)
	}
	cat, err := gen.StaticCatalog()
	if err != nil {
		b.Fatal(err)
	}
	tr := starql.NewTranslator(siemens.TBox(), siemens.Mappings(), cat)
	task, _ := siemens.TaskByID("T01_mon_temperature")
	q, err := starql.Parse(task.Query)
	if err != nil {
		b.Fatal(err)
	}
	tl, err := tr.Translate(q, starql.Options{})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := tr.EvalBindings(tl); err != nil {
		b.Fatal(err)
	}
	if len(tl.StreamFleet) == 0 {
		b.Fatal("empty stream fleet")
	}
	e := exastream.NewEngine(cat, opts)
	for _, sc := range siemens.StreamSchemas() {
		if err := e.DeclareStream(sc); err != nil {
			b.Fatal(err)
		}
	}
	for i, stmt := range tl.StreamFleet {
		if err := e.Register(fmt.Sprintf("f%04d", i), stmt, tl.Pulse, nil); err != nil {
			b.Fatal(err)
		}
	}
	events := gen.PlantDefaultEvents(0, 30_000)
	tuples, routes, err := gen.Generate(siemens.StreamConfig{
		FromMS: 0, ToMS: 30_000, StepMS: 500,
		Sensors: gen.SensorsOfTurbine(0), Events: events, Seed: 9,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % len(tuples)
		el := tuples[j]
		el.TS += int64(i/len(tuples)) * 30_000
		el.Row = el.Row.Clone()
		el.Row[1] = relation.Time(el.TS)
		if err := e.Ingest(siemens.RouteName(routes[j]), el); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if err := e.Flush(); err != nil {
		b.Fatal(err)
	}
	st := e.Stats()
	if st.WindowsExecuted == 0 {
		b.Fatal("no windows executed")
	}
}

func runFigure1(b *testing.B, cfg optique.Config) {
	gen, err := siemens.New(siemens.SmallConfig())
	if err != nil {
		b.Fatal(err)
	}
	cat, err := gen.StaticCatalog()
	if err != nil {
		b.Fatal(err)
	}
	sys, err := optique.NewSystem(cfg, siemens.TBox(), siemens.Mappings(), cat)
	if err != nil {
		b.Fatal(err)
	}
	defer sys.Close()
	for _, sc := range siemens.StreamSchemas() {
		if err := sys.DeclareStream(sc); err != nil {
			b.Fatal(err)
		}
	}
	task, _ := siemens.TaskByID("T01_mon_temperature")
	var alerts int64
	if _, err := sys.RegisterTask(task.ID, task.Query,
		func(string, int64, []rdf.Triple) { atomic.AddInt64(&alerts, 1) }); err != nil {
		b.Fatal(err)
	}
	events := gen.PlantDefaultEvents(0, 30_000)
	tuples, routes, err := gen.Generate(siemens.StreamConfig{
		FromMS: 0, ToMS: 30_000, StepMS: 500,
		Sensors: gen.SensorsOfTurbine(0), Events: events, Seed: 9,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % len(tuples)
		el := tuples[j]
		el.TS += int64(i/len(tuples)) * 30_000 // keep time advancing across laps
		el.Row = el.Row.Clone()
		el.Row[1] = relation.Time(el.TS)
		if err := sys.Ingest(siemens.RouteName(routes[j]), el); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if err := sys.Flush(); err != nil {
		b.Fatal(err)
	}
}

// ---- E2: gateway registration ----

// BenchmarkGatewayRegistration measures asynchronous query registration
// through the Figure 2 gateway → parser → scheduler path.
func BenchmarkGatewayRegistration(b *testing.B) {
	cat := relation.NewCatalog()
	cl, err := cluster.New(cluster.Options{Nodes: 4},
		func(int) *relation.Catalog { return cat })
	if err != nil {
		b.Fatal(err)
	}
	defer func() { cl.Gateway().Close(); cl.Close() }()
	if err := cl.DeclareStream(benchStreamSchema()); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tk, err := cl.Gateway().Submit(fmt.Sprintf("q%d", i),
			fmt.Sprintf("SELECT w.val FROM STREAM m [RANGE 1000 SLIDE 1000] AS w WHERE w.sid = %d", i%512),
			nil, nil)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := tk.Wait(); err != nil {
			b.Fatal(err)
		}
	}
}

func benchStreamSchema() stream.Schema {
	return stream.Schema{
		Name: "m",
		Tuple: relation.NewSchema(
			relation.Col("sid", relation.TInt),
			relation.Col("ts", relation.TTime),
			relation.Col("val", relation.TFloat)),
		TSCol: "ts",
	}
}

// ---- E3: enrich+unfold a catalog task into its fleet ----

// BenchmarkUnfoldFleet measures the translation pipeline (parse →
// enrich → unfold) for the Figure 1 catalog task.
func BenchmarkUnfoldFleet(b *testing.B) {
	gen, _ := siemens.New(siemens.SmallConfig())
	cat, err := gen.StaticCatalog()
	if err != nil {
		b.Fatal(err)
	}
	tr := starql.NewTranslator(siemens.TBox(), siemens.Mappings(), cat)
	task, _ := siemens.TaskByID("T01_mon_temperature")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q, err := starql.Parse(task.Query)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := tr.Translate(q, starql.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- E4: concurrent diagnostic tasks ----

// BenchmarkConcurrentTasks sweeps the number of concurrently registered
// window queries and reports ingest cost per tuple (the paper ran up to
// 1,024 concurrent tasks).
func BenchmarkConcurrentTasks(b *testing.B) {
	for _, n := range []int{16, 64, 256, 1024} {
		b.Run(fmt.Sprintf("tasks=%d", n), func(b *testing.B) {
			cat := relation.NewCatalog()
			cl, err := cluster.New(cluster.Options{
				Nodes: 8, PartitionColumn: "sid",
			}, func(int) *relation.Catalog { return cat })
			if err != nil {
				b.Fatal(err)
			}
			defer func() { cl.Gateway().Close(); cl.Close() }()
			if err := cl.DeclareStream(benchStreamSchema()); err != nil {
				b.Fatal(err)
			}
			for i := 0; i < n; i++ {
				q := sql.MustParse(fmt.Sprintf(
					"SELECT w.sid, avg(w.val) FROM STREAM m [RANGE 1000 SLIDE 1000] AS w WHERE w.sid = %d GROUP BY w.sid", i%256))
				if _, err := cl.Register(fmt.Sprintf("q%04d", i), q, nil, nil); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ts := int64(i/256) * 10
				el := stream.Timestamped{TS: ts, Row: relation.Tuple{
					relation.Int(int64(i % 256)), relation.Time(ts), relation.Float(float64(i % 100))}}
				if err := cl.Ingest("m", el); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if err := cl.Flush(); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// ---- E5: node scaling ----

// BenchmarkNodeScaling fixes the workload (128 per-sensor queries) and
// sweeps the cluster size; cmd/optique-bench extends the sweep to 128
// nodes.
func BenchmarkNodeScaling(b *testing.B) {
	for _, nodes := range []int{1, 2, 4, 8, 16} {
		b.Run(fmt.Sprintf("nodes=%d", nodes), func(b *testing.B) {
			cat := relation.NewCatalog()
			cl, err := cluster.New(cluster.Options{
				Nodes: nodes, PartitionColumn: "sid",
			}, func(int) *relation.Catalog { return cat })
			if err != nil {
				b.Fatal(err)
			}
			defer func() { cl.Gateway().Close(); cl.Close() }()
			if err := cl.DeclareStream(benchStreamSchema()); err != nil {
				b.Fatal(err)
			}
			for i := 0; i < 128; i++ {
				q := sql.MustParse(fmt.Sprintf(
					"SELECT w.sid, avg(w.val) FROM STREAM m [RANGE 1000 SLIDE 1000] AS w WHERE w.sid = %d GROUP BY w.sid", i%256))
				if _, err := cl.Register(fmt.Sprintf("q%04d", i), q, nil, nil); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ts := int64(i/256) * 10
				el := stream.Timestamped{TS: ts, Row: relation.Tuple{
					relation.Int(int64(i % 256)), relation.Time(ts), relation.Float(float64(i % 100))}}
				if err := cl.Ingest("m", el); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if err := cl.Flush(); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// ---- E6: bootstrapping ----

// BenchmarkBootstrap measures BootOX's direct bootstrapper over a
// 24-table schema.
func BenchmarkBootstrap(b *testing.B) {
	schema := bootstrap.Schema{
		BaseIRI: siemens.NS, DataIRI: siemens.DataNS,
	}
	for i := 0; i < 20; i++ {
		schema.Tables = append(schema.Tables, bootstrap.Table{
			Name: fmt.Sprintf("hist_%d", i), PrimaryKey: "rid",
			Columns: []bootstrap.Column{
				{Name: "rid", Type: relation.TInt},
				{Name: "sid", Type: relation.TInt},
				{Name: "avg_val", Type: relation.TFloat}},
		})
	}
	schema.Tables = append(schema.Tables,
		bootstrap.Table{Name: "a_turbines", PrimaryKey: "tid", Columns: []bootstrap.Column{
			{Name: "tid", Type: relation.TInt}, {Name: "model", Type: relation.TString}}},
		bootstrap.Table{Name: "a_sensors", PrimaryKey: "sid", Columns: []bootstrap.Column{
			{Name: "sid", Type: relation.TInt}, {Name: "tid", Type: relation.TInt},
			{Name: "kind", Type: relation.TString}}},
	)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bootstrap.Direct(schema); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- E7: enrichment scales with the TBox ----

// BenchmarkEnrichment sweeps class-hierarchy depth: PerfectRef must stay
// polynomial (the paper's claim for OWL 2 QL).
func BenchmarkEnrichment(b *testing.B) {
	for _, depth := range []int{4, 16, 64, 256} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			tb := ontology.New()
			for i := 0; i < depth; i++ {
				tb.AddConceptInclusion(
					ontology.Named(fmt.Sprintf("L%d", i+1)),
					ontology.Named(fmt.Sprintf("L%d", i)))
			}
			q := cq.New([]string{"x"}, cq.ClassAtom("L0", cq.V("x")))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := rewrite.PerfectRef(q, tb, rewrite.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- E8: unfolding scales with the mapping count ----

// BenchmarkUnfolding sweeps the number of mappings per predicate; the
// paper claims linear-time unfolding in mappings × query.
func BenchmarkUnfolding(b *testing.B) {
	for _, n := range []int{2, 8, 32, 128} {
		b.Run(fmt.Sprintf("mappings=%d", n), func(b *testing.B) {
			var ms []mapping.Mapping
			for i := 0; i < n; i++ {
				ms = append(ms, mapping.Mapping{
					ID: fmt.Sprintf("m%d", i), Pred: "C", IsClass: true,
					Subject: mapping.MustParseTemplate(fmt.Sprintf("http://e/%d/{id}", i)),
					Source:  mapping.SourceRef{Table: fmt.Sprintf("t%d", i)},
				})
			}
			set := mapping.MustNewSet(ms...)
			u := cq.UCQ{cq.New([]string{"x"}, cq.ClassAtom("C", cq.V("x")))}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := mapping.Unfold(u, set, mapping.UnfoldOptions{MaxCombinations: 100000}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- E9: adaptive indexing ablation ----

// BenchmarkAdaptiveIndex joins every window batch against a large static
// table. The engine indexes the join's lookup pattern when it builds the
// plan, so every probe is a hash lookup; the frozen ablation appendix of
// EXPERIMENTS.md holds the scanning baseline.
func BenchmarkAdaptiveIndex(b *testing.B) {
	cat := relation.NewCatalog()
	sensors, err := cat.Create("sensors", relation.NewSchema(
		relation.Col("sid", relation.TInt),
		relation.Col("kind", relation.TString)))
	if err != nil {
		b.Fatal(err)
	}
	for i := int64(0); i < 20_000; i++ {
		sensors.MustInsert(relation.Tuple{relation.Int(i), relation.String_("temp")})
	}
	e := exastream.NewEngine(cat, exastream.Options{})
	if err := e.DeclareStream(benchStreamSchema()); err != nil {
		b.Fatal(err)
	}
	q := sql.MustParse(`SELECT w.sid, s.kind FROM STREAM m [RANGE 100 SLIDE 100] AS w, sensors AS s WHERE w.sid = s.sid`)
	if err := e.Register("join", q, nil, nil); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ts := int64(i) * 10
		el := stream.Timestamped{TS: ts, Row: relation.Tuple{
			relation.Int(int64(i % 20_000)), relation.Time(ts), relation.Float(1)}}
		if err := e.Ingest("m", el); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- E10: LSH vs exact correlation ----

// BenchmarkLSHCorrelation compares LSH candidate generation + exact
// verification against the all-pairs baseline on 500 sensor windows.
func BenchmarkLSHCorrelation(b *testing.B) {
	const dim = 64
	rng := rand.New(rand.NewSource(5))
	series := make(map[int][]float64, 500)
	for id := 0; id < 500; id++ {
		s := make([]float64, dim)
		base := rng.NormFloat64()
		for i := range s {
			if id%50 == 0 { // every 50th sensor shares a ramp
				s[i] = float64(i) + rng.NormFloat64()*0.1
			} else {
				s[i] = base + rng.NormFloat64()
			}
		}
		series[id] = s
	}
	b.Run("exact", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			lsh.ExactPairs(series, 0.95)
		}
	})
	b.Run("lsh", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ix, err := lsh.New(lsh.Config{Bits: 96, Bands: 12, Dim: dim, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			for id, s := range series {
				if _, err := ix.Add(id, s); err != nil {
					b.Fatal(err)
				}
			}
			ix.CorrelatedPairs(0.95)
		}
	})
}

// ---- E11: window sharing (the paper's wCache) ----

// BenchmarkSharedWindows runs 32 same-window queries either on one
// engine (one shared window operator) or on 32 engines (one pass each).
func BenchmarkSharedWindows(b *testing.B) {
	const queries = 32
	mkQuery := func(i int) *sql.SelectStmt {
		return sql.MustParse(fmt.Sprintf(
			"SELECT w.val FROM STREAM m [RANGE 1000 SLIDE 1000] AS w WHERE w.sid = %d", i))
	}
	b.Run("shared", func(b *testing.B) {
		cat := relation.NewCatalog()
		e := exastream.NewEngine(cat, exastream.Options{})
		if err := e.DeclareStream(benchStreamSchema()); err != nil {
			b.Fatal(err)
		}
		for i := 0; i < queries; i++ {
			if err := e.Register(fmt.Sprintf("q%d", i), mkQuery(i), nil, nil); err != nil {
				b.Fatal(err)
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ts := int64(i) * 10
			el := stream.Timestamped{TS: ts, Row: relation.Tuple{
				relation.Int(int64(i % queries)), relation.Time(ts), relation.Float(1)}}
			if err := e.Ingest("m", el); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("unshared", func(b *testing.B) {
		var engines []*exastream.Engine
		for i := 0; i < queries; i++ {
			e := exastream.NewEngine(relation.NewCatalog(), exastream.Options{})
			if err := e.DeclareStream(benchStreamSchema()); err != nil {
				b.Fatal(err)
			}
			if err := e.Register("q", mkQuery(i), nil, nil); err != nil {
				b.Fatal(err)
			}
			engines = append(engines, e)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ts := int64(i) * 10
			el := stream.Timestamped{TS: ts, Row: relation.Tuple{
				relation.Int(int64(i % queries)), relation.Time(ts), relation.Float(1)}}
			for _, e := range engines {
				if err := e.Ingest("m", el); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// ---- E12: unfolded-fleet plan optimisation ablation ----

// BenchmarkUnfoldOptimization executes a redundant unfolded union
// (duplicate branches, cross joins with filters) with and without the
// optimiser.
func BenchmarkUnfoldOptimization(b *testing.B) {
	cat := relation.NewCatalog()
	t1, err := cat.Create("t1", relation.NewSchema(
		relation.Col("id", relation.TInt), relation.Col("k", relation.TInt)))
	if err != nil {
		b.Fatal(err)
	}
	t2, err := cat.Create("t2", relation.NewSchema(
		relation.Col("id", relation.TInt), relation.Col("v", relation.TFloat)))
	if err != nil {
		b.Fatal(err)
	}
	for i := int64(0); i < 800; i++ {
		t1.MustInsert(relation.Tuple{relation.Int(i), relation.Int(i % 7)})
		t2.MustInsert(relation.Tuple{relation.Int(i), relation.Float(float64(i))})
	}
	// A redundant union of identical join branches, written as cross
	// joins with WHERE equalities — the shape unfolding produces.
	branch := "SELECT a.id FROM t1 AS a, t2 AS b WHERE a.id = b.id AND a.k = 3"
	query := branch + " UNION " + branch + " UNION " + branch
	stmt := sql.MustParse(query)
	resolver := engine.CatalogResolver(cat)

	b.Run("optimized", func(b *testing.B) {
		plan, err := engine.Build(stmt, resolver)
		if err != nil {
			b.Fatal(err)
		}
		ctx := engine.NewExecContext(cat)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := plan.Execute(ctx); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("naive", func(b *testing.B) {
		plan, err := engine.BuildUnoptimized(stmt, resolver)
		if err != nil {
			b.Fatal(err)
		}
		ctx := engine.NewExecContext(cat)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := plan.Execute(ctx); err != nil {
				b.Fatal(err)
			}
		}
	})
}
