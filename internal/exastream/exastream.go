// Package exastream implements OPTIQUE's Data Stream Management System
// (challenge C3): continuous SQL(+) queries over streams and static
// tables, window sharing (one window operator per stream and window
// spec, its batches handed to every subscribed query — the paper's
// wCache role), native UDF registration, and adaptive main-memory
// indexing: every lookup pattern of a query's plan gets its hash index
// when the plan is built.
//
// The execution model matches the paper: the timeSlidingWindow operator
// groups incoming tuples into window batches; each completed batch is
// evaluated as a relational query blending the batch with static tables;
// results are paced by the query's pulse.
package exastream

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/recovery"
	"repro/internal/relation"
	"repro/internal/sql"
	"repro/internal/stream"
	"repro/internal/telemetry"
)

// Sink receives the result of one window evaluation of a registered
// query, in columnar form: window results leave the engine as vectors
// and are never materialised as tuples on the way (cb.Rows() converts
// exactly when a sink needs rows). The batch aliases no engine
// scratch, so it may be retained and no later window changes it; it may
// alias the shared read-only window vectors (a SELECT * result does),
// so the sink must not mutate it, and retaining such a batch keeps the
// window operator's log array reachable. Implementations must be safe
// for concurrent use.
type Sink func(queryID string, windowEnd int64, schema relation.Schema, cb *relation.ColBatch)

// Stats aggregates engine-level counters.
type Stats struct {
	TuplesIn        int64
	BatchesBuilt    int64
	WindowsExecuted int64
	RowsOut         int64
	// Deprecated: WCacheHits is inert (always 0; the window cache it
	// counted is gone) and goes with the next benchmark change.
	WCacheHits      int64
	AdaptiveIndexes int64 // hash indexes built for lookup patterns at plan time
	LateTuples      int64
	QueryFailures   int64 // failed window executions (contained by the error hook)
	Suspensions     int64 // queries quarantined after repeated failures

	// Per-execution counters surfaced from engine.ExecStats, summed over
	// all window executions.
	RowsScanned  int64
	RowsProduced int64
	HashProbes   int64
	IndexLookups int64

	// Plan-cache lifecycle: builds (cold or invalidated) and hits.
	PlanBuilds    int64
	PlanCacheHits int64
}

// metrics is the engine's instrument set — the former `counters` struct
// of raw atomics folded into the telemetry registry. Instruments are
// resolved once at engine construction so every hot-path update is
// still a single atomic add; Stats() and registry snapshots read the
// same values.
type metrics struct {
	tuplesIn        *telemetry.Counter
	batchesBuilt    *telemetry.Counter
	windowsExecuted *telemetry.Counter
	rowsOut         *telemetry.Counter
	adaptiveIndexes *telemetry.Counter
	lateTuples      *telemetry.Counter
	queryFailures   *telemetry.Counter
	suspensions     *telemetry.Counter
	rowsScanned     *telemetry.Counter
	rowsProduced    *telemetry.Counter
	hashProbes      *telemetry.Counter
	indexLookups    *telemetry.Counter
	planBuilds      *telemetry.Counter
	planCacheHits   *telemetry.Counter

	// Resource-governance instruments (see governance.go).
	govShedBatches *telemetry.Counter // window batches dropped by budget enforcement
	govShedBytes   *telemetry.Counter // bytes reclaimed by shedding
	govOverBudget  *telemetry.Counter // residual overages shedding could not reclaim

	windowExecNS *telemetry.Histogram // wall time of one window execution

	// Per-operator row counters folded from engine.ExecStats after each
	// window execution.
	opCalls [engine.NumOpKinds]*telemetry.Counter
	opRows  [engine.NumOpKinds]*telemetry.Counter
}

func newMetrics(reg *telemetry.Registry) *metrics {
	m := &metrics{
		tuplesIn:        reg.Counter("exastream.tuples_in"),
		batchesBuilt:    reg.Counter("exastream.batches_built"),
		windowsExecuted: reg.Counter("exastream.windows_executed"),
		rowsOut:         reg.Counter("exastream.rows_out"),
		adaptiveIndexes: reg.Counter("exastream.adaptive_indexes"),
		lateTuples:      reg.Counter("exastream.late_tuples"),
		queryFailures:   reg.Counter("exastream.query_failures"),
		suspensions:     reg.Counter("exastream.suspensions"),
		rowsScanned:     reg.Counter("exastream.rows_scanned"),
		rowsProduced:    reg.Counter("exastream.rows_produced"),
		hashProbes:      reg.Counter("exastream.hash_probes"),
		indexLookups:    reg.Counter("exastream.index_lookups"),
		planBuilds:      reg.Counter("exastream.plan.builds"),
		planCacheHits:   reg.Counter("exastream.plan.cache_hits"),
		govShedBatches:  reg.Counter("governance.shed_batches"),
		govShedBytes:    reg.Counter("governance.shed_bytes"),
		govOverBudget:   reg.Counter("governance.overbudget"),
		windowExecNS:    reg.Histogram("exastream.window.exec_ns", telemetry.LatencyBuckets),
	}
	for k := engine.OpKind(0); k < engine.NumOpKinds; k++ {
		m.opCalls[k] = reg.Counter("engine.op." + k.String() + ".calls")
		m.opRows[k] = reg.Counter("engine.op." + k.String() + ".rows_out")
	}
	return m
}

// Options configures an Engine.
type Options struct {
	// Deprecated: ShareWindows is inert (queries over one stream and
	// window always share its operator) and goes with the next benchmark
	// change.
	ShareWindows bool
	// OnQueryError, when set, receives per-query window-execution
	// failures instead of them aborting Ingest/Flush: one poison query
	// no longer fails every other query sharing the tick. The cluster
	// runtime installs a hook that records errors in the node's ring.
	OnQueryError func(queryID string, err error)
	// QuarantineAfter suspends a query once it fails this many
	// consecutive window executions (poison-query isolation); suspended
	// queries skip execution until Resume. 0 disables quarantine.
	// Quarantine (like OnQueryError) contains execution errors rather
	// than returning them from Ingest/Flush.
	QuarantineAfter int
	// Parallelism bounds the worker pool that executes continuous
	// queries made ready by one ingest/flush tick. 0 (the default) uses
	// GOMAXPROCS; 1 or less forces sequential execution. Windows of a
	// single query always run sequentially in window-end order,
	// whatever the pool size.
	Parallelism int
	// Telemetry, when set, is the metrics registry the engine records
	// into; nil gives the engine a private registry (counters then cost
	// the same either way). The cluster overrides it with one registry
	// per node so counters survive engine rebuilds after a crash.
	Telemetry *telemetry.Registry
	// Tracer, when set, receives per-window execution spans on each
	// query's lifecycle trace (created by the layer that registered the
	// query). Nil disables span recording at zero cost. The cluster
	// overrides it with its own tracer (see cluster.Options.TraceCapacity).
	Tracer *telemetry.Tracer
	// MemBudget is the default per-query window-state byte budget; a
	// query whose staged and owned window state exceeds it sheds its
	// oldest open windows until it fits. 0 disables enforcement
	// (per-query budgets can still be set with SetQueryBudget). The
	// cluster admits a query without an explicit budget at this
	// default, and a core System derives each task's budget from
	// starql.AnalyzeMemory with this as the floor.
	MemBudget int64
	// Pressure, when set, reports externally-attributed bytes for a
	// query (fault injection, cgroup observers); its value is added to
	// the query's measured usage before budget comparison.
	Pressure func(queryID string) int64
	// Recorder, when set, is the node's flight recorder: window
	// executions, degradations, and quarantines leave events in its
	// ring. Nil (the default) disables recording at zero cost. The
	// cluster overrides it with the node's recorder (see
	// cluster.Options.FlightRecorder).
	Recorder *telemetry.Recorder
}

// Engine is one ExaStream instance (one per worker node in the cluster).
type Engine struct {
	catalog *relation.Catalog
	funcs   *engine.FuncRegistry

	mu        sync.Mutex
	streams   map[string]stream.Schema
	windows   map[windowKey]*sharedWindow
	queries   map[string]*continuousQuery
	archives  map[string][]*relation.Table // stream -> archive tables
	federated map[string]FetchFunc
	opts      Options

	// govActive (atomic) is 1 once any query has a positive budget, so
	// the per-tuple enforcement hook is a single load when governance is
	// off.
	govActive int32
	reg       *telemetry.Registry
	met       *metrics

	// stats is the cost-based planner's statistics store: each static
	// table is analyzed the first time a cost rule asks for it.
	stats *engine.StatsStore

	// restores numbers the engine's restores (see Restore).
	restores atomic.Int64
}

// windowKey identifies one windowing pass. restore is 0 for a live
// operator, shared by every query registered over the stream and
// window. A restored operator is keyed by its restore and by its index
// in that restore's EngineState.Windows (-1 when the state has none for
// it), so the readers of one checkpointed operator share it again, and
// replay advances it without touching live operators.
type windowKey struct {
	stream  string
	spec    stream.WindowSpec
	restore int64
	index   int
}

// sharedWindow is one windowing pass over a stream, shared by all
// subscribed queries (the paper's wCache idea): each emitted batch is
// built once and delivered to every subscriber. It lives while it has
// a subscriber.
type sharedWindow struct {
	key  windowKey
	op   *stream.TimeSlidingWindow
	subs []*querySub
	// seq is a restored operator's replay cursor (guarded by e.mu): the
	// highest ingest sequence number it has applied. A tuple at or below
	// it is already in the operator's windows and is dropped. Live
	// operators keep no cursor (seq 0): they accept partition-salvage
	// resends, whose seqs can fall below any cursor. A restored operator
	// drops its cursor and goes live once live traffic passes it (see
	// goLiveLocked).
	seq int64
}

// querySub subscribes one stream reference of one query to a shared
// window.
type querySub struct {
	q      *continuousQuery
	refIdx int
}

// continuousQuery is one registered SQL(+) statement.
type continuousQuery struct {
	id    string
	stmt  *sql.SelectStmt
	refs  []*sql.TableRef // stream references, in discovery order
	specs []stream.WindowSpec
	pulse *stream.Pulse
	sink  Sink
	ops   []*sharedWindow // the operator each stream reference reads

	mu          sync.Mutex
	pending     map[int64]map[int]stream.Batch // window end -> refIdx -> batch
	stagedBytes int64                          // Σ Bytes of the pending batches (governance)
	failures    int                            // consecutive failed executions
	suspended   bool                           // quarantined: skips execution until Resume

	// budget is the query's window-state byte budget (0 = unenforced),
	// an atomic so enforcement reads it without extra locking; it
	// survives checkpoint/restore.
	budget atomic.Int64
	// govOver latches the over-budget state so the typed degradation
	// error reaches the ring once per episode (on the under→over
	// transition), not once per enforcement tick.
	govOver atomic.Bool

	// execMu serializes window executions of this query and guards plan;
	// distinct queries execute concurrently on the fleet pool.
	execMu sync.Mutex
	plan   *cachedPlan
	// cum accumulates per-operator stats across this query's window
	// executions (guarded by execMu) — the observed cardinalities
	// EXPLAIN ANALYZE renders against the planner's estimates.
	// windows/rowsOutTotal/lastEnd summarize successful executions for
	// the lag view.
	cum          engine.ExecStats
	windows      int64
	rowsOutTotal int64
	lastEnd      int64
	// execCtx is reused across this query's window executions (guarded
	// by execMu): per-operator stats are reset in place instead of
	// re-allocating the context every window.
	execCtx *engine.ExecContext

	// trace is the query's telemetry trace (nil when no tracer is
	// configured); window executions append spans to it.
	trace *telemetry.Trace
}

// cachedPlan is a continuous query's compiled physical plan, built once
// and re-executed every tick by rebinding the window sources. It is
// invalidated (rebuilt) when the catalog's table set changes or the
// query is resumed.
type cachedPlan struct {
	adapted engine.Plan                // adapted (and optimized) plan actually executed
	sources []*engine.WindowSourcePlan // one per stream ref, rebound per tick
	gen     uint64                     // catalog generation the plan was built at
}

// NewEngine builds an engine over a static catalog.
func NewEngine(cat *relation.Catalog, opts Options) *Engine {
	reg := opts.Telemetry
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	met := newMetrics(reg)
	return &Engine{
		catalog:   cat,
		funcs:     engine.NewFuncRegistry(),
		streams:   make(map[string]stream.Schema),
		windows:   make(map[windowKey]*sharedWindow),
		queries:   make(map[string]*continuousQuery),
		archives:  make(map[string][]*relation.Table),
		federated: make(map[string]FetchFunc),
		opts:      opts,
		reg:       reg,
		met:       met,
		stats:     engine.NewStatsStore(cat),
	}
}

// Telemetry returns the engine's metrics registry.
func (e *Engine) Telemetry() *telemetry.Registry { return e.reg }

// Catalog returns the static catalog.
func (e *Engine) Catalog() *relation.Catalog { return e.catalog }

// RegisterUDF installs a scalar UDF usable from SQL(+) queries.
func (e *Engine) RegisterUDF(name string, f engine.ScalarFunc) {
	e.funcs.Register(name, f)
}

// DeclareStream registers a stream schema.
func (e *Engine) DeclareStream(s stream.Schema) error {
	if err := s.Validate(); err != nil {
		return err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	key := strings.ToLower(s.Name)
	if _, ok := e.streams[key]; ok {
		return fmt.Errorf("exastream: stream %q already declared", s.Name)
	}
	e.streams[key] = s
	return nil
}

// StreamSchema returns a declared stream's schema.
func (e *Engine) StreamSchema(name string) (stream.Schema, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	s, ok := e.streams[strings.ToLower(name)]
	if !ok {
		return stream.Schema{}, fmt.Errorf("exastream: unknown stream %q", name)
	}
	return s, nil
}

// Register adds a continuous query. The statement's stream references
// must carry window specs with a common slide; the optional pulse paces
// output. Register returns an error for unknown streams or invalid
// windows.
func (e *Engine) Register(id string, stmt *sql.SelectStmt, pulse *stream.Pulse, sink Sink) error {
	q, err := e.newQuery(id, stmt, pulse, sink)
	if err != nil {
		return err
	}
	if err := e.subscribe(q, nil); err != nil {
		return err
	}
	e.warmPlan(q)
	return nil
}

// newQuery builds a continuous query after checking its pulse and that
// it reads a stream, attached to its trace when the engine traces.
func (e *Engine) newQuery(id string, stmt *sql.SelectStmt, pulse *stream.Pulse, sink Sink) (*continuousQuery, error) {
	if pulse != nil {
		if err := pulse.Validate(); err != nil {
			return nil, err
		}
	}
	refs := collectStreamRefs(stmt)
	if len(refs) == 0 {
		return nil, fmt.Errorf("exastream: query %s references no stream; run it with engine.Run instead", id)
	}
	q := &continuousQuery{
		id: id, stmt: stmt, refs: refs, pulse: pulse, sink: sink,
		pending: make(map[int64]map[int]stream.Batch),
	}
	if e.opts.Tracer != nil {
		// Attach to an existing trace (started by the coordinator at
		// translation time) or open a fresh one for this query id.
		if q.trace = e.opts.Tracer.Trace(id); q.trace == nil {
			q.trace = e.opts.Tracer.Start(id)
		}
	}
	return q, nil
}

// warmPlan builds q's physical plan eagerly so the very first window
// already runs on the cached, compiled path. A query that fails to
// build (missing table, bad expression) stays registered: the error
// resurfaces on each execution attempt and flows through the usual
// containment/quarantine machinery.
func (e *Engine) warmPlan(q *continuousQuery) {
	cp, err := e.buildPlan(q)
	if err != nil {
		return
	}
	e.met.planBuilds.Inc()
	q.execMu.Lock()
	if q.plan == nil {
		q.plan = cp
	}
	q.execMu.Unlock()
}

// subscribe admits a query that passes checkRefsLocked and subscribes
// it to the window operator of each stream reference: the live one, or
// with r set, the one restore r brings back. A missing operator is
// created; a restored one is seeded from the state r's EngineState
// lists for the query's reference, and cursored at the later of that
// state's cursor and the cut's for its stream.
func (e *Engine) subscribe(q *continuousQuery, r *Restore) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.checkRefsLocked(q); err != nil {
		return err
	}
	var st *recovery.QueryState
	if r != nil {
		st = r.es.Query(q.id)
	}
	ops := make([]*sharedWindow, len(q.refs))
	for i, ref := range q.refs {
		key := windowKey{stream: strings.ToLower(ref.Table), spec: q.specs[i]}
		var w *recovery.Window
		if r != nil {
			key.restore, key.index = r.id, -1
			// A state whose spec differs (the statement changed since the
			// cut) is not this reference's: it gets a fresh operator.
			if w = r.es.Window(st, i); w != nil && w.Spec == key.spec {
				key.index = st.Windows[i]
			} else {
				w = nil
			}
		}
		sw := e.windows[key]
		if sw == nil {
			op, err := restoredOp(key.spec, w)
			if err != nil {
				e.dropUnreadLocked(ops[:i])
				return err
			}
			sw = &sharedWindow{key: key, op: op}
			if r != nil {
				sw.seq = r.cursors[key.stream]
				if w != nil {
					sw.seq = max(sw.seq, w.Seq)
				}
			}
			e.windows[key] = sw
		}
		ops[i] = sw
	}
	for i, sw := range ops {
		sw.subs = append(sw.subs, &querySub{q: q, refIdx: i})
	}
	q.ops = ops
	e.admitLocked(q)
	return nil
}

// dropUnreadLocked deletes those of ops no query reads any more: an
// operator lives while it has a reader.
func (e *Engine) dropUnreadLocked(ops []*sharedWindow) {
	for _, sw := range ops {
		if len(sw.subs) == 0 {
			delete(e.windows, sw.key)
		}
	}
}

// checkRefsLocked holds the checks registering and restoring a query
// share: its id is unused, and every stream reference names a known
// stream and carries a valid window, all windows sliding alike. It sets
// q.specs, one window spec per reference, and changes nothing else, so
// a rejected query leaves no window behind.
func (e *Engine) checkRefsLocked(q *continuousQuery) error {
	if _, dup := e.queries[q.id]; dup {
		return fmt.Errorf("exastream: query %q already registered", q.id)
	}
	specs := make([]stream.WindowSpec, len(q.refs))
	for i, ref := range q.refs {
		if _, ok := e.streams[strings.ToLower(ref.Table)]; !ok {
			return fmt.Errorf("exastream: query %s: unknown stream %q", q.id, ref.Table)
		}
		if ref.Window == nil {
			return fmt.Errorf("exastream: query %s: stream %q lacks a window", q.id, ref.Table)
		}
		specs[i] = stream.WindowSpec{RangeMS: ref.Window.RangeMS, SlideMS: ref.Window.SlideMS}
		if err := specs[i].Validate(); err != nil {
			return err
		}
		if specs[i].SlideMS != specs[0].SlideMS {
			return fmt.Errorf("exastream: query %s: stream windows must share a slide", q.id)
		}
	}
	q.specs = specs
	return nil
}

// admitLocked adds a checked query to the engine, giving it the default
// memory budget when it has none; governance turns on with the first
// budget.
func (e *Engine) admitLocked(q *continuousQuery) {
	e.queries[q.id] = q
	if q.budget.Load() == 0 && e.opts.MemBudget > 0 {
		q.budget.Store(e.opts.MemBudget)
	}
	if q.budget.Load() > 0 {
		atomic.StoreInt32(&e.govActive, 1)
	}
}

// Unregister removes a query, and with it every operator it was the
// last reader of.
func (e *Engine) Unregister(id string) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	q, ok := e.queries[id]
	if !ok {
		return fmt.Errorf("exastream: unknown query %q", id)
	}
	delete(e.queries, id)
	for _, sw := range q.ops {
		sw.subs = slices.DeleteFunc(sw.subs, func(s *querySub) bool { return s.q == q })
	}
	e.dropUnreadLocked(q.ops)
	return nil
}

// Ingest pushes one tuple into a stream, advancing every shared window
// over it and executing any queries whose windows completed.
func (e *Engine) Ingest(streamName string, el stream.Timestamped) error {
	return e.IngestSeq(streamName, el, 0)
}

// IngestSeq is Ingest with a per-stream ingest sequence number (1-based;
// 0 means unsequenced). Sequence numbers only matter to restored
// operators: a tuple at or below a restored operator's cursor has
// already advanced its windows, before the cut or in replay, so that
// operator skips it — this is what makes the supervisor's replay
// idempotent against live re-deliveries.
func (e *Engine) IngestSeq(streamName string, el stream.Timestamped, seq int64) error {
	return e.push(streamName, el, seq, 0)
}

// push feeds one tuple to the operators over its stream — every one
// for live ingest (restore 0), or only the operators of one restore for
// its replay — and executes the windows it completes. A restored
// operator takes each sequenced tuple once: replay advances its cursor,
// and the first live tuple above the cursor makes it a live operator.
func (e *Engine) push(streamName string, el stream.Timestamped, seq, restore int64) error {
	e.mu.Lock()
	key := strings.ToLower(streamName)
	schema, ok := e.streams[key]
	if !ok {
		e.mu.Unlock()
		return fmt.Errorf("exastream: unknown stream %q", streamName)
	}
	// A window operator's log holds rows of one arity, so a tuple of
	// another is refused here, before any operator or the archive sees
	// it.
	if len(el.Row) != schema.Tuple.Arity() {
		e.mu.Unlock()
		return fmt.Errorf("exastream: stream %q: tuple has %d values, schema %d", streamName, len(el.Row), schema.Tuple.Arity())
	}
	if restore == 0 {
		e.met.tuplesIn.Inc()
		if err := e.archiveLocked(key, el); err != nil {
			e.mu.Unlock()
			return err
		}
	}
	var fires []delivery
	var caughtUp []*sharedWindow
	for wk, sw := range e.windows {
		if wk.stream != key || restore != 0 && wk.restore != restore {
			continue
		}
		if seq != 0 {
			if seq <= sw.seq {
				continue
			}
			if restore != 0 {
				sw.seq = seq
			} else if sw.seq != 0 {
				caughtUp = append(caughtUp, sw)
			}
		}
		before := sw.op.Late
		fires = e.deliverLocked(sw, sw.op.Push(el), fires)
		e.met.lateTuples.Add(sw.op.Late - before)
	}
	// Re-keyed after the walk: a key added while ranging over the map
	// could be visited again.
	e.goLiveLocked(caughtUp)
	e.mu.Unlock()

	err := e.dispatch(fires)
	e.enforceBudgets()
	return err
}

// goLiveLocked makes restored operators live ones: each drops its
// cursor, so partition-salvage resends below it are applied as they are
// to any live operator, and takes the live key of its (stream, window)
// unless a live operator already holds it, so queries registered from
// now on share it. Operators go in key order, so which of two over one
// (stream, window) takes the key does not depend on map order.
func (e *Engine) goLiveLocked(ops []*sharedWindow) {
	slices.SortFunc(ops, func(a, b *sharedWindow) int {
		return cmp.Or(cmp.Compare(a.key.restore, b.key.restore), cmp.Compare(a.key.index, b.key.index))
	})
	for _, sw := range ops {
		sw.seq = 0
		live := windowKey{stream: sw.key.stream, spec: sw.key.spec}
		if _, taken := e.windows[live]; !taken {
			delete(e.windows, sw.key)
			sw.key = live
			e.windows[live] = sw
		}
	}
}

// Flush completes all open windows (end of replay) and executes the
// remaining batches.
func (e *Engine) Flush() error {
	e.mu.Lock()
	var fires []delivery
	for _, sw := range e.windows {
		fires = e.deliverLocked(sw, sw.op.Flush(), fires)
	}
	e.mu.Unlock()
	return e.dispatch(fires)
}

// deliverLocked counts the batches an operator emitted and appends one
// delivery per batch and subscriber.
func (e *Engine) deliverLocked(sw *sharedWindow, batches []stream.Batch, fires []delivery) []delivery {
	for _, b := range batches {
		e.met.batchesBuilt.Inc()
		for _, sub := range sw.subs {
			fires = append(fires, delivery{sub, b})
		}
	}
	return fires
}

// delivery is one window batch headed for one stream reference of one
// query.
type delivery struct {
	sub   *querySub
	batch stream.Batch
}

// execItem is one ready window execution: every stream reference of the
// query has its batch for this window end.
type execItem struct {
	q       *continuousQuery
	end     int64
	batches []stream.Batch // indexed by stream-reference position
}

// dispatch stages the tick's deliveries and executes every query that
// became ready, in parallel across queries when the pool allows.
func (e *Engine) dispatch(fires []delivery) error {
	var ready []execItem
	for _, f := range fires {
		if it, ok := e.stage(f.sub.q, f.sub.refIdx, f.batch); ok {
			ready = append(ready, it)
		}
	}
	return e.runReady(ready)
}

// stage delivers a batch to one stream reference of a query and reports
// the execution item once batches for every reference at that window
// end are in.
func (e *Engine) stage(q *continuousQuery, refIdx int, b stream.Batch) (execItem, bool) {
	// Pulse pacing comes first: a batch for a non-pulse tick must never
	// enter the pending map, or multi-ref queries leak partial pending
	// entries for window ends that pacing would discard anyway.
	if q.pulse != nil {
		if (b.End-q.pulse.StartMS)%q.pulse.FrequencyMS != 0 || b.End < q.pulse.StartMS {
			return execItem{}, false
		}
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.suspended {
		return execItem{}, false
	}
	if len(q.refs) == 1 {
		// A single-ref query is ready the moment its batch arrives:
		// nothing enters the pending map (checkpoints and shedding only
		// ever see genuinely partial windows) and no byte estimate is
		// taken for a batch that is consumed on this very tick.
		return execItem{q: q, end: b.End, batches: []stream.Batch{b}}, true
	}
	m, ok := q.pending[b.End]
	if !ok {
		m = make(map[int]stream.Batch)
		q.pending[b.End] = m
	}
	if old, dup := m[refIdx]; dup {
		q.stagedBytes -= old.Bytes()
	}
	m[refIdx] = b
	q.stagedBytes += b.Bytes()
	if len(m) != len(q.refs) {
		return execItem{}, false
	}
	delete(q.pending, b.End)
	bs := make([]stream.Batch, len(q.refs))
	for ref, sb := range m {
		q.stagedBytes -= sb.Bytes()
		bs[ref] = sb
	}
	return execItem{q: q, end: b.End, batches: bs}, true
}

// parallelism resolves Options.Parallelism: 0 means GOMAXPROCS,
// anything below 1 means sequential.
func (e *Engine) parallelism() int {
	p := e.opts.Parallelism
	if p == 0 {
		return runtime.GOMAXPROCS(0)
	}
	if p < 1 {
		return 1
	}
	return p
}

// runReady executes the tick's ready windows. Items are grouped by
// query — one query's windows always run sequentially in window-end
// order, so sink calls stay ordered per query — and distinct queries
// fan out over a bounded worker pool.
func (e *Engine) runReady(items []execItem) error {
	if len(items) == 0 {
		return nil
	}
	var order []*continuousQuery
	groups := make(map[*continuousQuery][]execItem)
	for _, it := range items {
		if _, ok := groups[it.q]; !ok {
			order = append(order, it.q)
		}
		groups[it.q] = append(groups[it.q], it)
	}
	for _, q := range order {
		g := groups[q]
		sort.Slice(g, func(i, j int) bool { return g[i].end < g[j].end })
	}
	workers := e.parallelism()
	if workers > len(order) {
		workers = len(order)
	}
	if workers <= 1 {
		for _, q := range order {
			for _, it := range groups[q] {
				if err := e.executeItem(it); err != nil {
					return err
				}
			}
		}
		return nil
	}
	// Fork-join pool: each task is one query's ordered run of windows.
	// Panics (fault injection, poison UDFs) are captured per task and
	// re-raised on the calling goroutine after the join, so the cluster
	// supervisor — whose recover lives on the worker goroutine calling
	// Ingest/Flush — still observes them.
	errs := make([]error, len(order))
	panics := make([]any, len(order))
	tasks := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for gi := range tasks {
				func() {
					defer func() {
						if r := recover(); r != nil {
							panics[gi] = r
						}
					}()
					for _, it := range groups[order[gi]] {
						if err := e.executeItem(it); err != nil {
							errs[gi] = err
							return
						}
					}
				}()
			}
		}()
	}
	for gi := range order {
		tasks <- gi
	}
	close(tasks)
	wg.Wait()
	for _, r := range panics {
		if r != nil {
			panic(r)
		}
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// buildPlan constructs, optimizes and adapts a query's physical plan
// with every stream reference resolved to a rebindable window source.
func (e *Engine) buildPlan(q *continuousQuery) (*cachedPlan, error) {
	sources := make([]*engine.WindowSourcePlan, len(q.refs))
	base := engine.CatalogResolver(e.catalog)
	resolver := func(tr *sql.TableRef) (engine.Plan, error) {
		if !tr.IsStream {
			return base(tr)
		}
		for i, ref := range q.refs {
			if ref == tr {
				if sources[i] == nil {
					ss, err := e.StreamSchema(tr.Table)
					if err != nil {
						return nil, err
					}
					sources[i] = engine.NewWindowSourcePlan(tr.Name(), ss.Tuple.Qualify(tr.Name()))
				}
				return sources[i], nil
			}
		}
		return nil, fmt.Errorf("exastream: unresolved stream reference %q", tr.Table)
	}
	built, err := engine.Build(q.stmt, resolver)
	if err != nil {
		return nil, err
	}
	// Lookup-join adaptation and the cost-based rewrite. Every lookup
	// pattern of the final plan gets its index now, so the first window
	// already probes it; plans of several queries can be built at once,
	// and e.mu makes check, build and count one step, so each index
	// counts once.
	adapted, lookups := engine.Adapt(built, e.stats)
	for _, l := range lookups {
		if t, err := e.catalog.Get(l.Table); err == nil {
			e.mu.Lock()
			if !t.HasIndex(l.Cols...) && t.CreateIndex(l.Cols...) == nil {
				e.met.adaptiveIndexes.Inc()
			}
			e.mu.Unlock()
		}
	}
	return &cachedPlan{adapted: adapted, sources: sources, gen: e.catalog.Generation()}, nil
}

// executeItem evaluates one ready window of one query on its cached
// plan, rebuilding the plan first when the cache is cold or stale.
func (e *Engine) executeItem(it execItem) error {
	q := it.q
	q.execMu.Lock()
	defer q.execMu.Unlock()
	start := time.Now()
	span := q.trace.StartSpan("window-exec") // nil-safe: no-op without a tracer
	span.SetAttr("window_end", it.end)
	cacheHit := false
	cp := q.plan
	if cp == nil || cp.gen != e.catalog.Generation() {
		var err error
		cp, err = e.buildPlan(q)
		if err != nil {
			span.SetAttr("error", err.Error())
			span.End()
			return e.containQueryError(q, fmt.Errorf("exastream: query %s: %w", q.id, err))
		}
		e.met.planBuilds.Inc()
		q.plan = cp
	} else {
		cacheHit = true
		e.met.planCacheHits.Inc()
	}
	// Window batches are views of their operator's log: once the sink
	// has returned, the plan lets go of this window's rows, columns and
	// every frame derived from them, so a query that stops firing never
	// pins an old log array.
	defer engine.ReleaseScratch(cp.adapted)
	rowsIn := 0
	for i, src := range cp.sources {
		if src != nil {
			// Every query's delivery of a window carries the same
			// column-log view of it.
			src.Bind(it.batches[i].Columns())
			rowsIn += it.batches[i].Len()
		}
	}
	ctx := q.execCtx
	if ctx == nil {
		ctx = &engine.ExecContext{}
		q.execCtx = ctx
	}
	*ctx = engine.ExecContext{Catalog: e.catalog, Funcs: e.funcs}
	cb, err := engine.ExecutePlanColumns(ctx, cp.adapted)
	e.met.rowsScanned.Add(ctx.Stats.RowsScanned)
	e.met.rowsProduced.Add(ctx.Stats.RowsProduced)
	e.met.hashProbes.Add(ctx.Stats.HashProbes)
	e.met.indexLookups.Add(ctx.Stats.IndexLookups)
	e.foldOpStats(&ctx.Stats)
	q.cum.Add(&ctx.Stats)
	if err != nil {
		span.SetAttr("error", err.Error())
		span.End()
		return e.containQueryError(q, fmt.Errorf("exastream: query %s: %w", q.id, err))
	}
	q.mu.Lock()
	q.failures = 0
	q.mu.Unlock()
	rowsOut := cb.Len()
	q.windows++
	q.rowsOutTotal += int64(rowsOut)
	q.lastEnd = it.end
	e.met.windowsExecuted.Inc()
	e.met.rowsOut.Add(int64(rowsOut))
	elapsed := time.Since(start)
	e.met.windowExecNS.ObserveDuration(elapsed)
	span.SetAttr("rows_in", rowsIn).
		SetAttr("rows_out", rowsOut).
		SetAttr("plan_cache_hit", cacheHit).
		SetAttr("wall_ns", elapsed.Nanoseconds())
	span.End()
	e.opts.Recorder.Record(telemetry.EvWindowExec, q.id, "", it.end, elapsed.Nanoseconds())
	if q.sink != nil {
		q.sink(q.id, it.end, cp.adapted.Schema(), cb)
	}
	return nil
}

// foldOpStats folds one execution's per-operator counters into the
// registry's engine.op.* metrics.
func (e *Engine) foldOpStats(s *engine.ExecStats) {
	for k := range s.Ops {
		if c := s.Ops[k].Calls; c != 0 {
			e.met.opCalls[k].Add(c)
			e.met.opRows[k].Add(s.Ops[k].RowsOut)
		}
	}
}

// containQueryError handles a failed window execution. With an error
// hook or quarantine configured, the failure is counted against the
// query (suspending it after QuarantineAfter consecutive failures),
// reported through the hook, and contained — Ingest/Flush proceed for
// the other queries. Otherwise the error propagates as before.
func (e *Engine) containQueryError(q *continuousQuery, err error) error {
	if e.opts.OnQueryError == nil && e.opts.QuarantineAfter <= 0 {
		return err
	}
	q.mu.Lock()
	q.failures++
	suspend := e.opts.QuarantineAfter > 0 && q.failures >= e.opts.QuarantineAfter && !q.suspended
	if suspend {
		q.suspended = true
	}
	q.mu.Unlock()
	e.met.queryFailures.Inc()
	if suspend {
		e.met.suspensions.Inc()
		e.opts.Recorder.Record(telemetry.EvQuarantine, q.id, "", 0, int64(e.opts.QuarantineAfter))
	}
	if e.opts.OnQueryError != nil {
		e.opts.OnQueryError(q.id, err)
	}
	return nil
}

// SuspendedQueries lists quarantined queries, sorted.
func (e *Engine) SuspendedQueries() []string {
	e.mu.Lock()
	qs := make([]*continuousQuery, 0, len(e.queries))
	for _, q := range e.queries {
		qs = append(qs, q)
	}
	e.mu.Unlock()
	var out []string
	for _, q := range qs {
		q.mu.Lock()
		if q.suspended {
			out = append(out, q.id)
		}
		q.mu.Unlock()
	}
	sort.Strings(out)
	return out
}

// Resume lifts a query's quarantine, resets its failure count, and
// drops its cached plan — whatever poisoned the query may have been
// fixed by a catalog or UDF change, so the next window replans from
// scratch.
func (e *Engine) Resume(id string) error {
	e.mu.Lock()
	q, ok := e.queries[id]
	e.mu.Unlock()
	if !ok {
		return fmt.Errorf("exastream: unknown query %q", id)
	}
	q.mu.Lock()
	q.suspended = false
	q.failures = 0
	q.mu.Unlock()
	q.govOver.Store(false)
	q.execMu.Lock()
	q.plan = nil
	q.execMu.Unlock()
	return nil
}

// Stats returns a snapshot of engine counters (read from the same
// telemetry instruments the registry snapshot exposes).
func (e *Engine) Stats() Stats {
	m := e.met
	return Stats{
		TuplesIn:        m.tuplesIn.Value(),
		BatchesBuilt:    m.batchesBuilt.Value(),
		WindowsExecuted: m.windowsExecuted.Value(),
		RowsOut:         m.rowsOut.Value(),
		AdaptiveIndexes: m.adaptiveIndexes.Value(),
		LateTuples:      m.lateTuples.Value(),
		QueryFailures:   m.queryFailures.Value(),
		Suspensions:     m.suspensions.Value(),
		RowsScanned:     m.rowsScanned.Value(),
		RowsProduced:    m.rowsProduced.Value(),
		HashProbes:      m.hashProbes.Value(),
		IndexLookups:    m.indexLookups.Value(),
		PlanBuilds:      m.planBuilds.Value(),
		PlanCacheHits:   m.planCacheHits.Value(),
	}
}

// Add accumulates another snapshot into s (used for cluster-wide
// engine totals).
func (s *Stats) Add(o Stats) {
	s.TuplesIn += o.TuplesIn
	s.BatchesBuilt += o.BatchesBuilt
	s.WindowsExecuted += o.WindowsExecuted
	s.RowsOut += o.RowsOut
	s.AdaptiveIndexes += o.AdaptiveIndexes
	s.LateTuples += o.LateTuples
	s.QueryFailures += o.QueryFailures
	s.Suspensions += o.Suspensions
	s.RowsScanned += o.RowsScanned
	s.RowsProduced += o.RowsProduced
	s.HashProbes += o.HashProbes
	s.IndexLookups += o.IndexLookups
	s.PlanBuilds += o.PlanBuilds
	s.PlanCacheHits += o.PlanCacheHits
}

// collectStreamRefs walks the statement (all union branches, joins and
// subqueries) and returns pointers to every stream TableRef.
func collectStreamRefs(stmt *sql.SelectStmt) []*sql.TableRef {
	var out []*sql.TableRef
	var visitRef func(tr *sql.TableRef)
	var visitStmt func(s *sql.SelectStmt)
	visitRef = func(tr *sql.TableRef) {
		if tr.IsStream {
			out = append(out, tr)
		}
		if tr.Subquery != nil {
			visitStmt(tr.Subquery)
		}
		for i := range tr.Joins {
			visitRef(tr.Joins[i].Right)
		}
	}
	visitStmt = func(s *sql.SelectStmt) {
		for _, b := range s.Branches() {
			for _, tr := range b.From {
				visitRef(tr)
			}
		}
	}
	visitStmt(stmt)
	return out
}
