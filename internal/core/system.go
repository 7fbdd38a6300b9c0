// Package core implements the OPTIQUE system: the end-to-end OBSSDI
// pipeline of the paper. A System is deployed over an ontology, a
// mapping set, and the static catalog; users register STARQL diagnostic
// tasks, and the system (i) enriches them with the ontology
// (PerfectRef), (ii) unfolds them into SQL(+) fleets via the mappings,
// and (iii) executes them continuously on the distributed ExaStream
// runtime, emitting CONSTRUCT triples whenever a window satisfies the
// HAVING condition.
package core

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/exastream"
	"repro/internal/obda/mapping"
	"repro/internal/ontology"
	"repro/internal/rdf"
	"repro/internal/relation"
	"repro/internal/sql"
	"repro/internal/starql"
	"repro/internal/stream"
	"repro/internal/telemetry"
)

// AnswerSink receives the CONSTRUCT triples a task emits for one window.
// Implementations must be safe for concurrent use.
type AnswerSink func(taskID string, windowEnd int64, triples []rdf.Triple)

// Config sets up the runtime. It is the cluster's options: every
// setting has one home there or in its Engine field (see the settings
// table in README.md).
type Config = cluster.Options

// System is one OPTIQUE deployment.
type System struct {
	cfg        Config
	tbox       *ontology.TBox
	mappings   *mapping.Set
	catalog    *relation.Catalog
	cluster    *cluster.Cluster
	translator *starql.Translator

	reg    *telemetry.Registry // system-level metrics (translation stages)
	tracer *telemetry.Tracer   // the cluster's: one trace per task, rewrite → unfold → register → window-exec

	// HAVING-stage instruments, resolved once (hot path: one atomic op
	// per site). window_ns is the whole per-window HAVING stage.
	havingEvals    *telemetry.Counter
	havingMatches  *telemetry.Counter
	havingCompiled *telemetry.Counter
	havingNS       *telemetry.Histogram

	mu       sync.Mutex
	streams  map[string]stream.Schema
	builders map[string]*starql.SequenceBuilder
	tasks    map[string]*Task
	derived  map[string]string // task/query name -> derived stream
	feeder   *feeder
}

// Task is one registered diagnostic task.
type Task struct {
	ID          string
	Query       *starql.Query
	Translation *starql.Translation
	Bindings    []starql.Binding
	Node        int // cluster node hosting the continuous query

	// reader is the task's view of its stream, built at registration:
	// the stream mappings the HAVING can read, and the bound subjects'
	// keys (nil subjects when no binding has an IRI).
	reader  *starql.StreamReader
	sink    AnswerSink
	ring    alertRing
	answers int64
	windows int64

	// having is the query's HAVING condition lowered by
	// starql.CompileHaving at registration; nil when the query has no
	// HAVING clause. It lives and dies with the registration record (the
	// query AST is immutable, so unlike window plans there is nothing at
	// runtime that can invalidate it; re-registering recompiles).
	having *starql.CompiledHaving
}

// Answers returns the number of CONSTRUCT triples emitted so far.
func (t *Task) Answers() int64 { return atomic.LoadInt64(&t.answers) }

// Windows returns the number of windows evaluated so far.
func (t *Task) Windows() int64 { return atomic.LoadInt64(&t.windows) }

// FleetSize returns the size of the low-level query fleet the task
// replaces (static + per-binding stream queries).
func (t *Task) FleetSize() int {
	return len(t.Translation.StaticFleet) + len(t.Translation.StreamFleet)
}

// NewSystem deploys OPTIQUE over the given assets.
func NewSystem(cfg Config, tbox *ontology.TBox, set *mapping.Set, catalog *relation.Catalog) (*System, error) {
	if cfg.Nodes <= 0 {
		cfg.Nodes = 1
	}
	reg := telemetry.NewRegistry()
	cl, err := cluster.New(cfg, func(int) *relation.Catalog { return catalog })
	if err != nil {
		return nil, err
	}
	translator := starql.NewTranslator(tbox, set, catalog)
	translator.Metrics = reg
	translator.Recorder = cl.Recorder()
	return &System{
		havingEvals:    reg.Counter("starql.having.evals"),
		havingMatches:  reg.Counter("starql.having.matches"),
		havingCompiled: reg.Counter("starql.having.compiled"),
		havingNS:       reg.Histogram("starql.having.window_ns", telemetry.LatencyBuckets),
		cfg:            cfg,
		tbox:           tbox,
		mappings:       set,
		catalog:        catalog,
		cluster:        cl,
		translator:     translator,
		reg:            reg,
		tracer:         cl.Tracer(),
		streams:        make(map[string]stream.Schema),
		builders:       make(map[string]*starql.SequenceBuilder),
		tasks:          make(map[string]*Task),
		derived:        make(map[string]string),
	}, nil
}

// TBox returns the deployed ontology.
func (s *System) TBox() *ontology.TBox { return s.tbox }

// Mappings returns the deployed mapping set.
func (s *System) Mappings() *mapping.Set { return s.mappings }

// Catalog returns the static catalog.
func (s *System) Catalog() *relation.Catalog { return s.catalog }

// Cluster exposes the underlying runtime (for stats and scenario S2).
func (s *System) Cluster() *cluster.Cluster { return s.cluster }

// DeclareStream registers a stream on every node and prepares its
// sequence builder and the translator's key typing.
func (s *System) DeclareStream(sc stream.Schema) error {
	if err := s.cluster.DeclareStream(sc); err != nil {
		return err
	}
	b, err := starql.NewSequenceBuilder(sc, s.mappings)
	if err != nil {
		return err
	}
	s.translator.DeclareStream(sc)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.streams[sc.Name] = sc
	s.builders[sc.Name] = b
	return nil
}

// RegisterTask parses, translates, and registers a STARQL task; answers
// flow to the sink. It returns the Task handle with the translation
// artefacts (for the conciseness and fleet-size experiments).
func (s *System) RegisterTask(id, starqlText string, sink AnswerSink) (*Task, error) {
	q, err := starql.Parse(starqlText)
	if err != nil {
		return nil, err
	}
	return s.registerParsed(id, q, sink)
}

// SubmitTask registers a task through the gateway's asynchronous
// admission queue: the STARQL text is parsed synchronously (syntax
// errors surface immediately), but translation and placement run on the
// gateway worker. The ticket resolves to the hosting node; a full queue
// fails with cluster.ErrGatewayBusy (pair with cluster.RetryBusy and
// Ticket.WaitContext for bounded admission under load).
func (s *System) SubmitTask(id, starqlText string, sink AnswerSink) (*cluster.Ticket, error) {
	q, err := starql.Parse(starqlText)
	if err != nil {
		return nil, err
	}
	return s.cluster.Gateway().SubmitFunc(id, func() (int, error) {
		task, err := s.registerParsed(id, q, sink)
		if err != nil {
			return -1, err
		}
		return task.Node, nil
	})
}

func (s *System) registerParsed(id string, q *starql.Query, sink AnswerSink) (*Task, error) {
	s.mu.Lock()
	if _, dup := s.tasks[id]; dup {
		s.mu.Unlock()
		return nil, fmt.Errorf("core: task %q already registered", id)
	}
	streamName := q.Streams[0].Name
	builder, ok := s.builders[streamName]
	s.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("core: stream %q not declared", streamName)
	}

	// One trace per task covers the whole query lifecycle: the
	// translator adds rewrite/unfold spans, registration is recorded
	// here, and the hosting engine appends a span per window execution.
	// Unfolding applies the declared key and FK constraints the
	// deployment catalog satisfies; the FK emptiness probes run against
	// it.
	trace := s.tracer.Start(id)
	tl, err := s.translator.Translate(q, starql.Options{Trace: trace})
	if err != nil {
		return nil, err
	}
	bindings, err := s.translator.EvalBindings(tl)
	if err != nil {
		return nil, err
	}
	task := &Task{
		ID: id, Query: q, Translation: tl, Bindings: bindings,
		sink: sink,
	}
	// Compile the HAVING condition once per registered query; every
	// window evaluation reuses the program (DESIGN.md §10). The reader
	// reads only the predicates the program can read (none without a
	// HAVING: the sink then only needs the window's states).
	preds := []string{}
	if q.Having != nil {
		task.having = starql.CompileHaving(q.Having, q.Aggregates)
		s.havingCompiled.Inc()
		preds = task.having.Preds()
	}
	var subjects []string
	for _, b := range bindings {
		for _, term := range b {
			if term.IsIRI() {
				subjects = append(subjects, term.Value)
			}
		}
	}
	task.reader, err = builder.Reader(preds, subjects)
	if err != nil {
		return nil, err
	}

	// The runtime query materialises the raw window contents; HAVING
	// evaluation happens in the sink via the sequence builder (the
	// paper's window-partitioning UDF).
	stmt := sql.NewSelect()
	stmt.Items = []sql.SelectItem{{Star: true}}
	stmt.From = []*sql.TableRef{{
		Table: streamName, IsStream: true, Alias: "w",
		Window: &sql.WindowSpec{RangeMS: tl.Window.RangeMS, SlideMS: tl.Window.SlideMS},
	}}
	rspan := trace.StartSpan("register")
	// Classify the task's memory appetite at registration ("decide
	// cheaply at admission", not after the OOM): bounded tasks get a
	// budget derived from their window footprint, unbounded ones are
	// capped at the configured default and will degrade under pressure.
	var budget int64
	if s.cfg.Engine.MemBudget > 0 {
		analysis := starql.AnalyzeMemory(q)
		budget = analysis.Budget(s.cfg.Engine.MemBudget)
		rspan.SetAttr("mem_class", analysis.Class.String()).
			SetAttr("mem_budget", budget)
	}
	node, err := s.cluster.RegisterWith(id, stmt, tl.Pulse, s.windowSink(task), cluster.RegisterOptions{Budget: budget})
	if err != nil {
		rspan.SetAttr("error", err.Error())
		rspan.End()
		return nil, err
	}
	rspan.SetAttr("node", node).
		SetAttr("static_fleet", len(tl.StaticFleet)).
		SetAttr("stream_fleet", len(tl.StreamFleet)).
		SetAttr("bindings", len(bindings))
	rspan.End()
	task.Node = node

	s.mu.Lock()
	s.tasks[id] = task
	s.mu.Unlock()
	return task, nil
}

// windowSink adapts ExaStream window results into STARQL semantics:
// read the task's flat StdSeq sequence straight from the window's
// columnar result, evaluate HAVING per binding, emit CONSTRUCT triples.
// The batch may alias the shared window's vectors; the reader only
// reads them.
func (s *System) windowSink(task *Task) exastream.Sink {
	return func(_ string, windowEnd int64, _ relation.Schema, cb *relation.ColBatch) {
		atomic.AddInt64(&task.windows, 1)
		if cb.Len() == 0 {
			return
		}
		seq, err := task.reader.Read(cb)
		if err != nil || seq.Len() == 0 {
			return
		}
		var triples []rdf.Triple
		having := task.having
		var hstart time.Time
		if having != nil {
			hstart = time.Now()
		}
		for _, binding := range task.Bindings {
			if having != nil {
				ok, err := having.Eval(seq, binding)
				s.havingEvals.Inc()
				if err != nil || !ok {
					continue
				}
				s.havingMatches.Inc()
			}
			triples = append(triples, constructTriples(task.Query, binding)...)
		}
		if having != nil {
			s.havingNS.Observe(float64(time.Since(hstart).Nanoseconds()))
		}
		if len(triples) > 0 {
			atomic.AddInt64(&task.answers, int64(len(triples)))
			for _, tr := range triples {
				task.ring.add(Alert{TaskID: task.ID, WindowEnd: windowEnd, Triple: tr})
			}
			if task.sink != nil {
				task.sink(task.ID, windowEnd, triples)
			}
			s.forwardAnswers(task.Query.Name, windowEnd, triples)
		}
	}
}

// constructTriples instantiates the CONSTRUCT template under a binding.
func constructTriples(q *starql.Query, binding starql.Binding) []rdf.Triple {
	resolve := func(n starql.Node) (rdf.Term, bool) {
		if !n.IsVar() {
			return n.Term, true
		}
		t, ok := binding[n.Var]
		return t, ok
	}
	var out []rdf.Triple
	for _, tp := range q.Construct {
		sub, ok1 := resolve(tp.S)
		if !ok1 {
			continue
		}
		if tp.TypeAtom {
			cls, ok := resolve(tp.P)
			if !ok {
				continue
			}
			out = append(out, rdf.NewTriple(sub, rdf.NewIRI(rdf.RDFType), cls))
			continue
		}
		pred, ok2 := resolve(tp.P)
		if !ok2 || !pred.IsIRI() {
			continue
		}
		var obj rdf.Term
		if tp.NoObject {
			obj = rdf.NewBoolean(true)
		} else {
			var ok3 bool
			obj, ok3 = resolve(tp.O)
			if !ok3 {
				continue
			}
		}
		out = append(out, rdf.NewTriple(sub, pred, obj))
	}
	return out
}

// Unregister removes a task from the runtime.
func (s *System) Unregister(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.tasks[id]; !ok {
		return fmt.Errorf("core: unknown task %q", id)
	}
	if err := s.cluster.Unregister(id); err != nil {
		return err
	}
	delete(s.tasks, id)
	return nil
}

// Task returns a registered task by id.
func (s *System) Task(id string) (*Task, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.tasks[id]
	return t, ok
}

// TaskIDs lists registered tasks.
func (s *System) TaskIDs() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.tasks))
	for id := range s.tasks {
		out = append(out, id)
	}
	slices.Sort(out)
	return out
}

// Ingest pushes one measurement into a stream.
func (s *System) Ingest(streamName string, el stream.Timestamped) error {
	return s.cluster.Ingest(streamName, el)
}

// Flush drains the runtime (end of replay). With derived streams
// enabled, flushing a producer may emit answers that feed downstream
// tasks, so the drain loops to a fixpoint.
func (s *System) Flush() error {
	for round := 0; round < 8; round++ {
		s.mu.Lock()
		f := s.feeder
		s.mu.Unlock()
		if f != nil {
			f.drain()
		}
		before := s.feedCount()
		if err := s.cluster.Flush(); err != nil {
			return err
		}
		if f == nil || s.feedCount() == before {
			if f != nil {
				f.drain()
				if s.feedCount() != before {
					continue
				}
			}
			return nil
		}
	}
	return s.cluster.Flush()
}

func (s *System) feedCount() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.feeder == nil {
		return 0
	}
	return atomic.LoadInt64(&s.feeder.enqueued)
}

// Close shuts the runtime down.
func (s *System) Close() {
	s.mu.Lock()
	f := s.feeder
	s.mu.Unlock()
	if f != nil {
		f.close()
	}
	s.cluster.Gateway().Close()
	s.cluster.Close()
}

// Stats aggregates cluster statistics.
func (s *System) Stats() []cluster.NodeStats { return s.cluster.Stats() }

// Health summarises the runtime's failure state (node lifecycles,
// restarts, shed/salvaged tuples, quarantined queries).
func (s *System) Health() cluster.Health { return s.cluster.Health() }

// TelemetrySnapshot merges the system registry (translation metrics)
// with the cluster's (supervision counters plus every node's engine
// instruments) into one cluster-wide view.
func (s *System) TelemetrySnapshot() telemetry.Snapshot {
	return telemetry.Merge(s.reg.Snapshot(), s.cluster.TelemetrySnapshot())
}

// Traces returns the retained query lifecycle traces (one per task:
// rewrite → unfold → register → window-exec spans).
func (s *System) Traces() []telemetry.TraceSnapshot { return s.tracer.Snapshots() }

// Trace returns one task's lifecycle trace, if retained.
func (s *System) Trace(id string) *telemetry.Trace { return s.tracer.Trace(id) }

// QueryLags reports every registered task's fleet-wide lag-view row
// (watermark lag, window backlog, budget headroom, degrade state),
// stamped with node and tenant.
func (s *System) QueryLags() []telemetry.QueryLag { return s.cluster.QueryLags() }

// Events dumps the merged flight-recorder timeline across all nodes
// plus the cluster ring. Empty unless Config.FlightRecorder > 0.
func (s *System) Events() []telemetry.Event { return s.cluster.Events() }

// Explain renders a registered task's full pipeline: the STARQL
// window/pulse, rewrite and unfolding statistics, the unfolded SQL(+)
// fleet (static and per-binding stream members), and the runtime
// operator tree of the continuous query actually executing on the
// cluster. With analyze set, the runtime tree carries the observed
// per-operator stats (calls, rows, selectivity, inclusive wall time)
// accumulated across the task's window executions — EXPLAIN ANALYZE.
func (s *System) Explain(taskID string, analyze bool) (string, error) {
	task, ok := s.Task(taskID)
	if !ok {
		return "", fmt.Errorf("core: unknown task %q", taskID)
	}
	tl := task.Translation
	var sb strings.Builder
	fmt.Fprintf(&sb, "== STARQL task %s ==\n", task.ID)
	fmt.Fprintf(&sb, "window: range=%dms slide=%dms", tl.Window.RangeMS, tl.Window.SlideMS)
	if tl.Pulse != nil {
		fmt.Fprintf(&sb, " pulse: start=%dms every=%dms", tl.Pulse.StartMS, tl.Pulse.FrequencyMS)
	}
	sb.WriteByte('\n')
	r, u := tl.RewriteStats, tl.UnfoldStats
	fmt.Fprintf(&sb, "rewrite (PerfectRef): generated=%d result=%d atom_steps=%d reduce_steps=%d\n",
		r.Generated, r.Result, r.AtomSteps, r.ReduceSteps)
	fmt.Fprintf(&sb, "unfold: cqs=%d combinations=%d pruned=%d fleet=%d self_joins_removed=%d unmapped_atoms=%d constraint_pruned=%d\n",
		u.CQs, u.Combinations, u.Pruned, u.FleetSize, u.SelfJoinsRemoved, u.UnmappedAtoms,
		u.ConstraintPruned)
	if task.having != nil {
		sb.WriteString("having: compiled matcher\n")
	} else {
		sb.WriteString("having: none\n")
	}
	fmt.Fprintf(&sb, "bindings: %d\n", len(task.Bindings))
	fmt.Fprintf(&sb, "reader: %s\n", task.reader)
	fmt.Fprintf(&sb, "static fleet (%d members):\n", len(tl.StaticFleet))
	for i, stmt := range tl.StaticFleet {
		fmt.Fprintf(&sb, "  [%d] %s\n", i, stmt.String())
	}
	fmt.Fprintf(&sb, "stream fleet (%d members):\n", len(tl.StreamFleet))
	for i, stmt := range tl.StreamFleet {
		fmt.Fprintf(&sb, "  [%d] %s\n", i, stmt.String())
	}
	sb.WriteString("runtime continuous query:\n")
	text, err := s.cluster.ExplainQuery(task.ID, analyze)
	if err != nil {
		return "", err
	}
	sb.WriteString(text)
	return sb.String(), nil
}

// ServeTelemetry starts the opt-in observability endpoint on addr
// (host:port; port 0 picks one): /metrics serves the merged registry
// snapshot as JSON (or Prometheus text with ?format=prom), /healthz
// readiness, /queries the fleet lag view, /queries/{id}/explain the
// rendered pipeline, /events the flight-recorder timeline, /traces
// the span log, and /debug/pprof/ the Go profiler. It returns the
// bound address; callers own the returned server's shutdown.
func (s *System) ServeTelemetry(addr string) (*telemetry.Server, string, error) {
	return telemetry.Serve(addr, telemetry.HandlerConfig{
		Snapshot: s.TelemetrySnapshot,
		Traces:   s.Traces,
		Queries:  s.QueryLags,
		Explain:  s.Explain,
		Events:   s.Events,
	})
}
