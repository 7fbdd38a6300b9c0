// Command optique-bench regenerates the paper's quantitative claims and
// prints one table per experiment (see DESIGN.md's experiment index and
// EXPERIMENTS.md for recorded runs):
//
//	-exp conciseness   E3: one STARQL query vs its unfolded fleet
//	-exp concurrent    E4: 1..1024 concurrent diagnostic tasks
//	-exp scaling       E5: node scaling 1..128
//	-exp bootstrap     E6: bootstrapping time and asset counts
//	-exp testsets      E13: the 10 preconfigured test sets
//	-exp list          print the accepted -exp values, one per line
//	-exp all           every experiment above
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	optique "repro"
	"repro/cmd/internal/cliflags"
	"repro/internal/bootstrap"
	"repro/internal/cluster"
	"repro/internal/exastream"
	"repro/internal/rdf"
	"repro/internal/relation"
	"repro/internal/siemens"
	"repro/internal/sql"
	"repro/internal/starql"
	"repro/internal/stream"
	"repro/internal/telemetry"
)

// telem is the monitoring endpoint's data source. Experiments create
// and tear down clusters as they run, so the endpoint reads whichever
// runtime is current rather than binding to one at startup.
var telem struct {
	mu  sync.Mutex
	cfg telemetry.HandlerConfig
}

func setTelemetrySource(cfg telemetry.HandlerConfig) {
	telem.mu.Lock()
	defer telem.mu.Unlock()
	telem.cfg = cfg
}

func currentSource() telemetry.HandlerConfig {
	telem.mu.Lock()
	defer telem.mu.Unlock()
	return telem.cfg
}

func currentSnapshot() telemetry.Snapshot {
	if snap := currentSource().Snapshot; snap != nil {
		return snap()
	}
	return telemetry.Snapshot{}
}

func currentTraces() []telemetry.TraceSnapshot {
	if traces := currentSource().Traces; traces != nil {
		return traces()
	}
	return nil
}

func currentQueries() []telemetry.QueryLag {
	if queries := currentSource().Queries; queries != nil {
		return queries()
	}
	return nil
}

func currentExplain(id string, analyze bool) (string, error) {
	if explain := currentSource().Explain; explain != nil {
		return explain(id, analyze)
	}
	return "", fmt.Errorf("optique-bench: no runtime is currently up")
}

func currentEvents() []telemetry.Event {
	if events := currentSource().Events; events != nil {
		return events()
	}
	return nil
}

// experiments enumerates the accepted -exp values in the order `-exp
// list` prints them; scripts/check_docs.sh validates documented
// invocations against this list.
var experiments = []string{
	"conciseness", "concurrent", "scaling", "bootstrap", "testsets",
	"list", "all",
}

// cfg is the deployment config the shared flags (cliflags) fill; the
// cluster sweeps and the full-system experiments copy it and set only
// what each experiment fixes (node count, partitioning, windows).
var cfg *optique.Config

// explainTasks carries -explain into the full-system experiments: the
// fleet lag table after each test set.
var explainTasks bool

func main() {
	exp := flag.String("exp", "all", "experiment: "+strings.Join(experiments, "|"))
	maxQueries := flag.Int("maxqueries", 1024, "upper bound for the concurrency sweep")
	maxNodes := flag.Int("maxnodes", 128, "upper bound for the node-scaling sweep")
	telemetryAddr := flag.String("telemetry-addr", "", "serve /metrics, /traces and /debug/pprof on this address (e.g. localhost:6060; unauthenticated, \":port\" binds loopback)")
	cfg = cliflags.Bind(flag.CommandLine)
	flag.BoolVar(&explainTasks, "explain", false, "print the fleet lag table after each full-system test set")
	flag.Parse()

	var telemetrySrv *telemetry.Server
	if *telemetryAddr != "" {
		srv, bound, err := telemetry.Serve(*telemetryAddr, telemetry.HandlerConfig{
			Snapshot: currentSnapshot,
			Traces:   currentTraces,
			Queries:  currentQueries,
			Explain:  currentExplain,
			Events:   currentEvents,
		})
		if err != nil {
			log.Fatal(err)
		}
		telemetrySrv = srv
		fmt.Printf("telemetry: http://%s/metrics (also /healthz /queries /events /traces)\n", bound)
	}

	switch *exp {
	case "conciseness":
		conciseness()
	case "concurrent":
		concurrent(*maxQueries)
	case "scaling":
		scaling(*maxNodes)
	case "bootstrap":
		bootstrapExp()
	case "testsets":
		testsets()
	case "list":
		for _, e := range experiments {
			fmt.Println(e)
		}
	case "all":
		conciseness()
		concurrent(*maxQueries)
		scaling(*maxNodes)
		bootstrapExp()
		testsets()
	default:
		log.Fatalf("unknown experiment %q", *exp)
	}
	if telemetrySrv != nil {
		// Graceful drain instead of leaking the listener for the rest of
		// the process (and any embedding test binary).
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		_ = telemetrySrv.Shutdown(ctx)
		cancel()
	}
}

// conciseness (E3): for each catalog task, compare the STARQL text with
// the unfolded fleet the system generates — the paper's "one ontological
// query instead of a fleet of hundreds of data queries".
func conciseness() {
	fmt.Println("== E3 conciseness: STARQL vs unfolded fleet (fleet grows with bindings) ==")
	gen, err := siemens.New(siemens.Config{
		Turbines: 20, SensorsPerTurbine: 20, AssembliesPerTurbine: 4,
		SourceASplit: 0.5, Seed: 1,
	})
	if err != nil {
		log.Fatal(err)
	}
	cat, err := gen.StaticCatalog()
	if err != nil {
		log.Fatal(err)
	}
	tr := starql.NewTranslator(siemens.TBox(), siemens.Mappings(), cat)
	fmt.Printf("%-24s %10s %10s %10s %12s %12s %8s\n",
		"task", "starql(B)", "fleet(#)", "fleet_opt", "fleet_opt(B)", "bindings", "ratio")
	for _, task := range siemens.Catalog()[:8] {
		q, err := starql.Parse(task.Query)
		if err != nil {
			log.Fatal(err)
		}
		out, err := tr.Translate(q, starql.Options{})
		if err != nil {
			log.Fatalf("%s: %v", task.ID, err)
		}
		bindings, err := tr.EvalBindings(out)
		if err != nil {
			log.Fatal(err)
		}
		fleetBytes := 0
		for _, s := range out.StaticFleet {
			fleetBytes += len(s.String())
		}
		for _, s := range out.StreamFleet {
			fleetBytes += len(s.String())
		}
		// The registered fleet is unfolded under the declared
		// constraints; the as-written fleet also holds every member they
		// pruned.
		nOpt := len(out.StaticFleet) + len(out.StreamFleet)
		n := nOpt + out.UnfoldStats.ConstraintPruned
		ratio := float64(fleetBytes) / float64(len(task.Query))
		fmt.Printf("%-24s %10d %10d %10d %12d %12d %7.1fx\n",
			task.ID, len(task.Query), n, nOpt, fleetBytes, len(bindings), ratio)
	}
}

// concurrent (E4): sustained tuple rate with 2^k concurrent per-sensor
// diagnostic queries on an 8-node cluster.
func concurrent(max int) {
	fmt.Println("\n== E4 concurrent diagnostic tasks (8 nodes, per-sensor window queries) ==")
	fmt.Printf("%8s %14s %14s %10s %12s %12s %12s %12s\n",
		"queries", "tuples/s", "deliveries/s", "windows", "rowsScanned", "hashProbes", "idxLookups", "planHits")
	for n := 1; n <= max; n *= 2 {
		rate, deliveries, eng := runConcurrent(n, 8, 40_000)
		fmt.Printf("%8d %14.0f %14.0f %10d %12d %12d %12d %12d\n",
			n, rate, deliveries, eng.WindowsExecuted, eng.RowsScanned, eng.HashProbes, eng.IndexLookups, eng.PlanCacheHits)
	}
}

func runConcurrent(queries, nodes, tuples int) (float64, float64, exastream.Stats) {
	cat := relation.NewCatalog()
	copts := *cfg
	copts.Nodes, copts.PartitionColumn = nodes, "sid"
	cl, err := cluster.New(copts, func(int) *relation.Catalog { return cat })
	if err != nil {
		log.Fatal(err)
	}
	defer func() { cl.Gateway().Close(); cl.Close() }()
	setTelemetrySource(telemetry.HandlerConfig{
		Snapshot: cl.TelemetrySnapshot,
		Queries:  cl.QueryLags,
		Explain:  cl.ExplainQuery,
		Events:   cl.Events,
	})
	if err := cl.DeclareStream(stream.Schema{
		Name: "m",
		Tuple: relation.NewSchema(
			relation.Col("sid", relation.TInt),
			relation.Col("ts", relation.TTime),
			relation.Col("val", relation.TFloat)),
		TSCol: "ts",
	}); err != nil {
		log.Fatal(err)
	}
	var out int64
	for i := 0; i < queries; i++ {
		q := sql.MustParse(fmt.Sprintf(
			"SELECT w.sid, avg(w.val) FROM STREAM m [RANGE 1000 SLIDE 1000] AS w WHERE w.sid = %d GROUP BY w.sid", i%256))
		if _, err := cl.Register(fmt.Sprintf("q%04d", i), q, nil,
			func(string, int64, relation.Schema, *relation.ColBatch) { atomic.AddInt64(&out, 1) }); err != nil {
			log.Fatal(err)
		}
	}
	start := time.Now()
	for i := 0; i < tuples; i++ {
		ts := int64(i/256) * 10
		el := stream.Timestamped{TS: ts, Row: relation.Tuple{
			relation.Int(int64(i % 256)), relation.Time(ts), relation.Float(float64(i % 100)),
		}}
		if err := cl.Ingest("m", el); err != nil {
			log.Fatal(err)
		}
	}
	if err := cl.Flush(); err != nil {
		log.Fatal(err)
	}
	elapsed := time.Since(start)
	var deliveries int64
	for _, st := range cl.Stats() {
		deliveries += st.Tuples
	}
	// One consistent cluster-wide snapshot instead of summing fields
	// from per-node stats read at different instants.
	eng := cl.EngineTotals()
	// A degraded run (dead workers, shed tuples, quarantined queries)
	// invalidates the throughput numbers; flag it rather than report
	// silently wrong rates.
	if h := cl.Health(); h.Degraded() || h.Dropped > 0 {
		fmt.Printf("  !! degraded run: %d/%d nodes live, %d restarts, %d dropped, %d salvaged, %d quarantined, %d errors\n",
			h.Live, h.Nodes, h.Restarts, h.Dropped, h.Requeued, h.Suspended, h.Errors)
	}
	return float64(tuples) / elapsed.Seconds(), float64(deliveries) / elapsed.Seconds(), eng
}

// scaling (E5): fixed workload (128 queries, partitioned stream), node
// count swept 1..max; the paper scaled 1..128 VMs.
func scaling(maxNodes int) {
	fmt.Println("\n== E5 node scaling (128 per-sensor queries, partitioned ingest) ==")
	fmt.Printf("%8s %14s %10s %12s %12s\n", "nodes", "tuples/s", "speedup", "rowsScanned", "idxLookups")
	var base float64
	for n := 1; n <= maxNodes; n *= 2 {
		rate, _, eng := runConcurrent(128, n, 40_000)
		if base == 0 {
			base = rate
		}
		fmt.Printf("%8d %14.0f %9.2fx %12d %12d\n", n, rate, rate/base, eng.RowsScanned, eng.IndexLookups)
	}
}

// bootstrapExp (E6): bootstrapping time over the Siemens source schemas.
func bootstrapExp() {
	fmt.Println("\n== E6 bootstrapping the Siemens schemas ==")
	schema := bootstrap.Schema{
		BaseIRI: siemens.NS, DataIRI: siemens.DataNS,
		Tables: benchTables(),
	}
	start := time.Now()
	res, err := bootstrap.Direct(schema)
	if err != nil {
		log.Fatal(err)
	}
	elapsed := time.Since(start)
	classes, objProps, dataProps, nmaps := res.Stats()
	fmt.Printf("tables=%d time=%v classes=%d objProps=%d dataProps=%d mappings=%d axioms=%d\n",
		len(schema.Tables), elapsed, classes, objProps, dataProps, nmaps, res.TBox.Len())
}

func benchTables() []bootstrap.Table {
	var out []bootstrap.Table
	// Two source families with several tables each, mirroring the
	// generator plus historical shards.
	for i := 0; i < 20; i++ {
		out = append(out, bootstrap.Table{
			Name: fmt.Sprintf("hist_%d", i), PrimaryKey: "rid",
			Columns: []bootstrap.Column{
				{Name: "rid", Type: relation.TInt},
				{Name: "sid", Type: relation.TInt},
				{Name: "day", Type: relation.TInt},
				{Name: "avg_val", Type: relation.TFloat},
				{Name: "max_val", Type: relation.TFloat},
			},
		})
	}
	out = append(out,
		bootstrap.Table{Name: "a_turbines", PrimaryKey: "tid", Columns: []bootstrap.Column{
			{Name: "tid", Type: relation.TInt}, {Name: "model", Type: relation.TString},
			{Name: "country", Type: relation.TString}, {Name: "year", Type: relation.TInt}}},
		bootstrap.Table{Name: "a_assemblies", PrimaryKey: "aid", Columns: []bootstrap.Column{
			{Name: "aid", Type: relation.TInt}, {Name: "tid", Type: relation.TInt},
			{Name: "kind", Type: relation.TString}}},
		bootstrap.Table{Name: "a_sensors", PrimaryKey: "sid", Columns: []bootstrap.Column{
			{Name: "sid", Type: relation.TInt}, {Name: "aid", Type: relation.TInt},
			{Name: "kind", Type: relation.TString}}},
		bootstrap.Table{Name: "msmt_a", IsStream: true, TSCol: "ts", Columns: []bootstrap.Column{
			{Name: "sid", Type: relation.TInt}, {Name: "ts", Type: relation.TTime},
			{Name: "val", Type: relation.TFloat}, {Name: "fail", Type: relation.TInt}}},
	)
	return out
}

// testsets (E13): run each of the 10 preconfigured sets end-to-end on a
// 4-node cluster and report throughput and alerts.
func testsets() {
	fmt.Println("\n== E13 the 10 preconfigured test sets (4 nodes) ==")
	fmt.Printf("%6s %9s %12s %12s %10s\n", "set", "queries", "tuples", "tuples/s", "alerts")
	for i := 1; i <= 10; i++ {
		queries, tuples, rate, alerts := runTestSet(i)
		fmt.Printf("%6d %9d %12d %12.0f %10d\n", i, queries, tuples, rate, alerts)
	}
}

func runTestSet(idx int) (int, int, float64, int64) {
	gen, err := siemens.New(siemens.Config{
		Turbines: 4, SensorsPerTurbine: 10, AssembliesPerTurbine: 2,
		SourceASplit: 0.5, Seed: 1,
	})
	if err != nil {
		log.Fatal(err)
	}
	cat, err := gen.StaticCatalog()
	if err != nil {
		log.Fatal(err)
	}
	scfg := *cfg
	scfg.Nodes = 4
	sys, err := optique.NewSystem(scfg, siemens.TBox(), siemens.Mappings(), cat)
	if err != nil {
		log.Fatal(err)
	}
	for _, sc := range siemens.StreamSchemas() {
		if err := sys.DeclareStream(sc); err != nil {
			log.Fatal(err)
		}
	}
	defer sys.Close()
	setTelemetrySource(telemetry.HandlerConfig{
		Snapshot: sys.TelemetrySnapshot,
		Traces:   sys.Traces,
		Queries:  sys.QueryLags,
		Explain:  sys.Explain,
		Events:   sys.Events,
	})
	var alerts int64
	set := siemens.TestSets()[idx-1]
	for _, task := range set {
		if _, err := sys.RegisterTask(task.ID, task.Query,
			func(string, int64, []rdf.Triple) { atomic.AddInt64(&alerts, 1) }); err != nil {
			log.Fatal(err)
		}
	}
	var sensors []int64
	for tid := 0; tid < 4; tid++ {
		sensors = append(sensors, gen.SensorsOfTurbine(tid)...)
	}
	events := gen.PlantDefaultEvents(0, 20_000)
	tuples, routes, err := gen.Generate(siemens.StreamConfig{
		FromMS: 0, ToMS: 20_000, StepMS: 500, Sensors: sensors, Events: events, Seed: 2,
	})
	if err != nil {
		log.Fatal(err)
	}
	start := time.Now()
	for i, el := range tuples {
		if err := sys.Ingest(siemens.RouteName(routes[i]), el); err != nil {
			log.Fatal(err)
		}
	}
	if err := sys.Flush(); err != nil {
		log.Fatal(err)
	}
	elapsed := time.Since(start)
	if explainTasks {
		printLagTable(sys.QueryLags())
	}
	return len(set), len(tuples), float64(len(tuples)) / elapsed.Seconds(), alerts
}

// printLagTable renders the fleet lag view (-explain): per query its
// hosting node, degrade state, progress, watermark lag against the
// fleet frontier, and window-state backlog.
func printLagTable(lags []telemetry.QueryLag) {
	if len(lags) == 0 {
		return
	}
	fmt.Printf("  %-24s %4s %-9s %8s %10s %8s %10s\n",
		"QUERY", "NODE", "STATE", "WINDOWS", "ROWS_OUT", "LAG_MS", "BACKLOG_B")
	for _, l := range lags {
		fmt.Printf("  %-24s %4d %-9s %8d %10d %8d %10d\n",
			l.ID, l.Node, l.State, l.Windows, l.RowsOut, l.WatermarkLagMS, l.BacklogBytes)
	}
}
