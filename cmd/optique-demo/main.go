// Command optique-demo drives the three demonstration scenarios of the
// paper's Section 3:
//
//	-scenario s1   diagnostics with the preconfigured deployment: register
//	               catalog tasks, replay telemetry, print the dashboard
//	-scenario s2   performance showcase: run one of the 10 test sets on an
//	               n-node cluster and report throughput
//	-scenario s3   user deployment: bootstrap assets from the raw schema,
//	               then run a task over them
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"sync/atomic"
	"time"

	optique "repro"
	"repro/cmd/internal/cliflags"
	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/rdf"
	"repro/internal/siemens"
)

// cfg is the deployment config the shared flags (cliflags) and
// -parallelism fill; deploy copies it per scenario.
var cfg *optique.Config

// telemetryAddr, when non-empty, makes deploy serve /metrics, /traces
// and /debug/pprof for the running system.
var telemetryAddr string

// explainTasks carries the -explain flag: after the replay, print each
// task's EXPLAIN ANALYZE pipeline, the fleet lag table, and the tail
// of the flight recorder.
var explainTasks bool

// telemetrySrv is the running observability endpoint (nil without
// -telemetry-addr); main shuts it down gracefully on exit instead of
// leaking the listener.
var telemetrySrv *optique.TelemetryServer

func main() {
	scenario := flag.String("scenario", "s1", "s1, s2, or s3")
	nodes := flag.Int("nodes", 4, "cluster size (s2)")
	testSet := flag.Int("set", 3, "test set 1..10 (s2)")
	seconds := flag.Int64("seconds", 30, "length of the replayed telemetry")
	turbines := flag.Int("turbines", 8, "fleet size for the replay")
	chaos := flag.Bool("chaos", false, "kill a worker mid-replay (s2) to showcase query failover")
	cfg = cliflags.Bind(flag.CommandLine)
	flag.IntVar(&cfg.Engine.Parallelism, "parallelism", 0, "per-node worker pool for ready windows (0 = GOMAXPROCS, negative = sequential)")
	flag.StringVar(&telemetryAddr, "telemetry-addr", "", "serve /metrics, /traces and /debug/pprof on this address (e.g. localhost:6060; unauthenticated, \":port\" binds loopback)")
	flag.BoolVar(&explainTasks, "explain", false, "after the replay, print each task's EXPLAIN ANALYZE pipeline, the fleet lag table, and recent flight-recorder events")
	flag.Parse()

	switch *scenario {
	case "s1":
		runS1(*seconds, *turbines)
	case "s2":
		runS2(*nodes, *testSet, *seconds, *turbines, *chaos)
	case "s3":
		fmt.Println("scenario S3 is the examples/bootstrap program; run: go run ./examples/bootstrap")
	default:
		log.Fatalf("unknown scenario %q", *scenario)
	}
	if telemetrySrv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		_ = telemetrySrv.Shutdown(ctx)
		cancel()
	}
}

// deploy builds a system over a fleet of the given size. A non-nil
// fault injector runs the cluster with restarts disabled so an injected
// crash exercises query failover rather than a silent restart.
func deploy(nodes, turbines int, inj optique.FaultInjector) (*optique.System, *siemens.Generator) {
	gen, err := siemens.New(siemens.Config{
		Turbines: turbines, SensorsPerTurbine: 10, AssembliesPerTurbine: 2,
		SourceASplit: 0.5, Seed: 1,
	})
	if err != nil {
		log.Fatal(err)
	}
	cat, err := gen.StaticCatalog()
	if err != nil {
		log.Fatal(err)
	}
	dcfg := *cfg
	dcfg.Nodes, dcfg.Faults = nodes, inj
	if inj != nil {
		dcfg.MaxRestarts = -1
	}
	sys, err := optique.NewSystem(dcfg, siemens.TBox(), siemens.Mappings(), cat)
	if err != nil {
		log.Fatal(err)
	}
	for _, sc := range siemens.StreamSchemas() {
		if err := sys.DeclareStream(sc); err != nil {
			log.Fatal(err)
		}
	}
	if telemetryAddr != "" {
		srv, bound, err := sys.ServeTelemetry(telemetryAddr)
		if err != nil {
			log.Fatal(err)
		}
		telemetrySrv = srv
		fmt.Printf("telemetry: http://%s/metrics (also /healthz /queries /events /traces)\n", bound)
	}
	return sys, gen
}

// introspect prints the -explain report: each task's EXPLAIN ANALYZE
// pipeline, the fleet-wide lag table, and the flight recorder's tail.
func introspect(sys *optique.System) {
	for _, id := range sys.TaskIDs() {
		text, err := sys.Explain(id, true)
		if err != nil {
			log.Printf("explain %s: %v", id, err)
			continue
		}
		fmt.Printf("\n%s", text)
	}
	lags := sys.QueryLags()
	fmt.Printf("\n%-24s %4s %-9s %8s %10s %8s %10s %s\n",
		"QUERY", "NODE", "STATE", "WINDOWS", "ROWS_OUT", "LAG_MS", "BACKLOG_B", "TENANT")
	for _, l := range lags {
		fmt.Printf("%-24s %4d %-9s %8d %10d %8d %10d %s\n",
			l.ID, l.Node, l.State, l.Windows, l.RowsOut, l.WatermarkLagMS, l.BacklogBytes, l.Tenant)
	}
	events := sys.Events()
	fmt.Printf("\nflight recorder: %d events retained", len(events))
	tail := events
	if len(tail) > 5 {
		tail = tail[len(tail)-5:]
	}
	for _, ev := range tail {
		fmt.Printf("\n  node=%d %s query=%s value=%d", ev.Node, ev.Kind, ev.Query, ev.Value)
	}
	fmt.Println()
}

func replay(sys *optique.System, gen *siemens.Generator, seconds int64, turbines int) int {
	var sensors []int64
	for tid := 0; tid < turbines; tid++ {
		sensors = append(sensors, gen.SensorsOfTurbine(tid)...)
	}
	events := gen.PlantDefaultEvents(0, seconds*1000)
	tuples, routes, err := gen.Generate(siemens.StreamConfig{
		FromMS: 0, ToMS: seconds * 1000, StepMS: 500,
		Sensors: sensors, Events: events, Seed: 11,
	})
	if err != nil {
		log.Fatal(err)
	}
	for i, el := range tuples {
		if err := sys.Ingest(siemens.RouteName(routes[i]), el); err != nil {
			log.Fatal(err)
		}
	}
	if err := sys.Flush(); err != nil {
		log.Fatal(err)
	}
	return len(tuples)
}

func runS1(seconds int64, turbines int) {
	sys, gen := deploy(2, turbines, nil)
	defer sys.Close()
	var alerts int64
	for _, id := range []string{"T01_mon_temperature", "T06_thr_pressure", "T12_corr_vibration"} {
		task, _ := siemens.TaskByID(id)
		if _, err := sys.RegisterTask(task.ID, task.Query,
			func(taskID string, end int64, ts []rdf.Triple) {
				atomic.AddInt64(&alerts, int64(len(ts)))
				for _, tr := range ts {
					fmt.Printf("[%s] t=%dms %s -> %s\n", taskID, end, tr.S.LocalName(), tr.O.LocalName())
				}
			}); err != nil {
			log.Fatal(err)
		}
	}
	n := replay(sys, gen, seconds, turbines)
	fmt.Printf("\nS1 done: %d tuples replayed, %d alert triples\n", n, alerts)
	if explainTasks {
		introspect(sys)
	}
}

func runS2(nodes, setIdx int, seconds int64, turbines int, chaos bool) {
	if setIdx < 1 || setIdx > 10 {
		log.Fatalf("test set must be 1..10, got %d", setIdx)
	}
	var inj optique.FaultInjector
	if chaos {
		// Crash the last worker on its 500th tuple: its tasks fail over
		// to the survivors and the replay keeps running.
		inj = faults.New(7).PanicAt(nodes-1, 500)
	}
	sys, gen := deploy(nodes, turbines, inj)
	defer sys.Close()
	set := siemens.TestSets()[setIdx-1]
	var rows int64
	start := time.Now()
	// Admission goes through the asynchronous gateway: submissions that
	// hit a full queue back off with jitter, and every ticket is awaited
	// under a deadline before the replay starts.
	tickets := make([]*cluster.Ticket, 0, len(set))
	for _, task := range set {
		task := task
		var tk *cluster.Ticket
		err := cluster.RetryBusy(context.Background(), 6, 2*time.Millisecond, func() error {
			var err error
			tk, err = sys.SubmitTask(task.ID, task.Query,
				func(string, int64, []rdf.Triple) { atomic.AddInt64(&rows, 1) })
			return err
		})
		if err != nil {
			log.Fatal(err)
		}
		tickets = append(tickets, tk)
	}
	wctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, tk := range tickets {
		if _, err := tk.WaitContext(wctx); err != nil {
			log.Fatal(err)
		}
	}
	regTime := time.Since(start)

	start = time.Now()
	n := replay(sys, gen, seconds, turbines)
	elapsed := time.Since(start)
	fmt.Printf("S2: test set %d (%d queries) on %d nodes\n", setIdx, len(set), nodes)
	fmt.Printf("  registration: %v\n", regTime)
	fmt.Printf("  replay:       %d tuples in %v (%.0f tuples/s ingest)\n",
		n, elapsed, float64(n)/elapsed.Seconds())
	eng := sys.Cluster().EngineTotals()
	fmt.Printf("  engine: %d tuple deliveries, %d windows executed (%.0f deliveries/s)\n",
		eng.TuplesIn, eng.WindowsExecuted, float64(eng.TuplesIn)/elapsed.Seconds())
	h := sys.Health()
	fmt.Printf("  health: %d/%d nodes live (%d restarting, %d dead, %d restarts), "+
		"%d dropped, %d salvaged, %d quarantined, %d errors\n",
		h.Live, h.Nodes, h.Restarting, h.Dead, h.Restarts,
		h.Dropped, h.Requeued, h.Suspended, h.Errors)
	if cfg.CheckpointEvery > 0 {
		snap := sys.TelemetrySnapshot()
		fmt.Printf("  recovery: %d checkpoints, %d restores, %d tuples replayed, "+
			"%d windows deduped, %d torn\n",
			snap.Counters["recovery.checkpoints"], snap.Counters["recovery.restores"],
			snap.Counters["recovery.replayed"], snap.Counters["recovery.deduped_windows"],
			snap.Counters["recovery.torn"])
	}
	if chaos {
		for _, st := range sys.Stats() {
			fmt.Printf("  node %d: %-10s %6d tuples, %d queries\n",
				st.Node, st.State, st.Tuples, st.Queries)
		}
	}
	if explainTasks {
		introspect(sys)
	}
}
