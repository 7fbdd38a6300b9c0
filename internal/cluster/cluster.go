// Package cluster implements the distributed runtime of ExaStream as
// described in the paper's Figure 2: queries are registered through an
// asynchronous gateway, parsed, and handed to a scheduler that places
// stream and relational operators on worker nodes based on load; each
// worker runs its own stream-engine instance.
//
// The paper's deployment ran 1–128 VMs; here each node is an in-process
// worker (goroutine + its own ExaStream engine) connected by bounded
// queues. The scheduling and partitioning logic — what produces the
// paper's scaling behaviour — is the real thing; only the transport is
// simulated. The runtime is failure-aware: workers are supervised
// (panic recovery, capped restarts, query failover — see supervisor.go),
// a full ingest queue blocks its producer (inbox.go),
// and asynchronous errors land in bounded per-node rings (errors.go).
package cluster

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/exastream"
	"repro/internal/recovery"
	"repro/internal/relation"
	"repro/internal/sql"
	"repro/internal/stream"
	"repro/internal/telemetry"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Placement selects the worker for a new query.
type Placement int

const (
	// PlaceLeastLoaded picks the node with the fewest assigned queries,
	// breaking ties by recent tuple load (the paper's load-based
	// scheduler).
	PlaceLeastLoaded Placement = iota
	// PlaceRoundRobin cycles through nodes; the scheduling ablation
	// compares it against load-based placement.
	PlaceRoundRobin
)

// Options configures a cluster.
type Options struct {
	Nodes     int
	Placement Placement
	// Engine options applied to every node's ExaStream instance. They
	// are also the one home of the per-query execution settings the
	// cluster reads: Engine.MemBudget is the default admission budget,
	// and Engine.QuarantineAfter the poison-query threshold. The
	// cluster overrides Engine.Telemetry, Engine.Recorder and
	// Engine.Tracer per node.
	Engine exastream.Options
	// QueueSize is each node's input queue capacity (default 1024).
	QueueSize int
	// PartitionColumn, when set, routes stream tuples to a single node by
	// hash of this column instead of broadcasting to all hosting nodes.
	// Queries must then be partition-compatible (they filter or group by
	// the same column), which holds for the per-sensor diagnostic tasks.
	PartitionColumn string

	// MaxRestarts caps how often the supervisor restarts a crashed
	// worker before declaring it dead and failing its queries over.
	// 0 means the default (3); negative disables restarts entirely.
	MaxRestarts int
	// RestartBackoff is the initial delay before a worker restart; it
	// doubles per consecutive restart, capped at 500ms. Default 5ms.
	RestartBackoff time.Duration
	// Faults, when set, injects failures into worker loops (chaos
	// testing; see internal/faults).
	Faults FaultInjector
	// GatewayQueue is the gateway submission queue capacity (default
	// 256). Submit returns ErrGatewayBusy when it is full.
	GatewayQueue int
	// Telemetry is the cluster-level metrics registry (restarts,
	// failovers, drops, per-node health gauges). Nil means a private
	// registry; read it merged with the per-node engine registries via
	// TelemetrySnapshot.
	Telemetry *telemetry.Registry

	// CheckpointEvery is the checkpoint cadence: each node cuts a
	// pulse-aligned checkpoint of its per-query stream state after
	// roughly this many processed tuples (the cut waits for a window-end
	// boundary, forced once 4x overdue or the replay log nears
	// capacity), logs the tuples it processes since, and delivers
	// windows exactly once through the emit gate. 0 turns all three
	// off. Restarts and failovers take one path either way: restore the
	// latest checkpoint, or none, and replay the log and salvaged queue.
	// Without checkpoints a restart brings its queries back empty, and a
	// failover feeds each migrated query the dead node's queued tuples.
	CheckpointEvery int
	// ReplayLogCap bounds each node's retained-tuple replay log in
	// entries (default recovery.DefaultLogCap). When capacity pressure
	// sheds a tuple not yet covered by a checkpoint, windows spanning
	// the gap may be incomplete after a restore, and
	// recovery.lost_coverage counts it.
	ReplayLogCap int

	// NodeMemBudget caps the sum of admitted query budgets per node;
	// Register returns ErrOverBudget (retryable) when no live node has
	// headroom. 0 disables placement budgeting.
	NodeMemBudget int64
	// TenantQuota enables per-tenant admission control (see TenantOf for
	// the namespace convention). The zero value disables it.
	TenantQuota TenantQuota

	// Transport selects how the routing layer reaches workers:
	// TransportChannel (default) delivers in-process on the caller's
	// goroutine; TransportTCP runs the same traffic over framed,
	// checksummed loopback TCP sessions with heartbeat failure detection
	// and suspicion-triggered failover (see docs/transport.md).
	Transport TransportKind
	// Listen is the TCP transport's listen address (default
	// "127.0.0.1:0"); ignored by the channel transport.
	Listen string
	// TransportTuning overrides the TCP transport's reliability clocks
	// (heartbeats, suspicion, retransmission, reconnect backoff); zero
	// fields resolve to defaults.
	TransportTuning transport.Tuning

	// FlightRecorder is the per-node flight-recorder ring capacity in
	// events: each node keeps that many recent structured events
	// (window executions, degradations, checkpoints, restarts), and the
	// cluster keeps one more ring for node-spanning events (failovers,
	// admission rejections). 0 disables recording at zero cost.
	FlightRecorder int
	// TraceCapacity bounds how many query lifecycle traces the cluster's
	// tracer retains (default 64; oldest evicted first). Every node's
	// engine appends its window-exec spans to it.
	TraceCapacity int
}

// clusterMetrics are the supervision counters kept in the cluster
// registry; node lifecycle events bump them alongside the per-node
// atomics that Stats/Health report.
type clusterMetrics struct {
	restarts  *telemetry.Counter
	failovers *telemetry.Counter
	dropped   *telemetry.Counter
	salvaged  *telemetry.Counter
	errors    *telemetry.Counter
}

func newClusterMetrics(reg *telemetry.Registry) *clusterMetrics {
	return &clusterMetrics{
		restarts:  reg.Counter("cluster.restarts"),
		failovers: reg.Counter("cluster.failovers"),
		dropped:   reg.Counter("cluster.dropped"),
		salvaged:  reg.Counter("cluster.salvaged"),
		errors:    reg.Counter("cluster.errors"),
	}
}

// Cluster is a set of worker nodes behind a gateway and scheduler.
type Cluster struct {
	opts       Options
	catalogFor func(node int) *relation.Catalog
	nodes      []*Node

	mu     sync.Mutex
	closed bool
	// queries retains every registration (id, AST, pulse, sink, current
	// node) so crashed nodes can be rebuilt and dead nodes' queries can
	// fail over.
	queries map[string]*queryRecord
	// streamHosts maps stream name -> the node indexes hosting queries
	// over it, ascending: the routing slice Ingest reads. A rebuild
	// replaces the slices, never edits them, so a reader may use one
	// after dropping c.mu.
	streamHosts map[string][]int
	rrNext      int
	schemas     map[string]stream.Schema
	udfs        map[string]engine.ScalarFunc
	recovering  int // in-flight worker recoveries (WaitSettled)

	reg *telemetry.Registry
	met *clusterMetrics
	// tracer holds one lifecycle trace per query; every node's engine
	// records into it, so traces survive worker rebuilds.
	tracer *telemetry.Tracer
	// frec is the cluster-level flight recorder (node -1) for events
	// that span nodes: failovers and admission rejections. Nil when
	// Options.FlightRecorder == 0.
	frec *telemetry.Recorder

	// rec is the recovery coordinator. It lives here — outside any
	// node — so checkpoints, replay logs and the emit gate survive
	// worker death; without checkpoints it holds none, and its logs stay
	// empty. seqs assigns the per-stream ingest sequence numbers
	// (guarded by mu) that make replay idempotent.
	rec  *recovery.Coordinator
	seqs map[string]int64

	// gov enforces per-tenant admission quotas (always non-nil; a zero
	// quota admits everything).
	gov *governor

	// tr carries routed tuples and flush barriers to the workers
	// (channel or TCP; see transport.go).
	tr transport.Transport

	gateway *Gateway
}

// queryRecord is the retained registration of one continuous query.
type queryRecord struct {
	id      string
	stmt    *sql.SelectStmt
	streams []string // streamNamesOf(stmt)
	pulse   *stream.Pulse
	sink    exastream.Sink
	node    int
	budget  int64  // admitted window-state byte budget (0 = unenforced)
	tenant  string // TenantOf(id), for quota release

	// Recovery bookkeeping (guarded by Cluster.mu). pendingRestore marks
	// a query assigned to node whose engine-side registration happens via
	// a queued restore job; until the job runs, ckpt/cursors/feed hold
	// the state source the restore will seed from (the victim's
	// checkpointed query state, the cut cursors, and the replay feed of
	// victim-logged plus salvaged tuples).
	pendingRestore bool
	ckpt           *recovery.Checkpoint
	cursors        map[string]int64
	feed           []recovery.Tuple
}

// Node is one worker: an ExaStream engine fed by a bounded inbox and
// run under supervision.
type Node struct {
	ID     int
	engine *exastream.Engine // swapped on restart; guarded by Cluster.mu for cross-goroutine reads

	// reg is the node's metrics registry. It outlives engine rebuilds:
	// a restarted worker's fresh engine resolves the same instruments,
	// so counters accumulate across crashes.
	reg *telemetry.Registry
	met *clusterMetrics // cluster-level counters, shared by all nodes
	// rec is the node's flight recorder (nil when disabled). Like reg
	// it outlives engine rebuilds, so the event ring spans crashes —
	// exactly when the black box matters.
	rec *telemetry.Recorder

	in      *inbox
	wg      sync.WaitGroup
	current work // item being processed; owned by the worker goroutine

	// Checkpoint bookkeeping, owned by the worker goroutine (no locks):
	// per-stream cursor of the highest processed seq, tuples since the
	// last committed checkpoint, and the engine's windows-executed count
	// at the previous tick (window-end boundary detection).
	cursors   map[string]int64
	sinceCkpt int
	lastWins  int64

	// failingOver guards the suspicion-triggered failover (guarded by
	// Cluster.mu): the detector fires once per link, but a late
	// suspicion must not re-fail a node the supervisor already handled.
	failingOver bool

	state   int32 // NodeState
	queries int32
	tuples  int64
	// budgetUsed sums the admitted budgets of queries placed on this
	// node (guarded by Cluster.mu); NodeMemBudget caps it.
	budgetUsed int64
	restarts   int32
	dropped    int64
	requeued   int64

	errs errorRing
}

type work struct {
	stream  string
	el      stream.Timestamped
	seq     int64 // per-stream ingest sequence
	flush   chan error
	restore *restoreJob // checkpoint-restore job (runs on the worker goroutine)
	retries int
}

func lowerKey(s string) string { return strings.ToLower(s) }

// New builds and starts a cluster. The catalog factory is called once per
// node so each worker owns its static data copy (as the paper's VMs did);
// pass a closure returning a shared catalog to model shared storage. The
// factory is also invoked when the supervisor rebuilds a crashed node.
func New(opts Options, catalogFor func(node int) *relation.Catalog) (*Cluster, error) {
	if opts.Nodes <= 0 {
		return nil, fmt.Errorf("cluster: need at least one node, got %d", opts.Nodes)
	}
	if opts.QueueSize <= 0 {
		opts.QueueSize = 1024
	}
	if opts.GatewayQueue <= 0 {
		opts.GatewayQueue = 256
	}
	reg := opts.Telemetry
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	c := &Cluster{
		opts:        opts,
		catalogFor:  catalogFor,
		queries:     make(map[string]*queryRecord),
		streamHosts: make(map[string][]int),
		schemas:     make(map[string]stream.Schema),
		udfs:        make(map[string]engine.ScalarFunc),
		reg:         reg,
		met:         newClusterMetrics(reg),
		tracer:      telemetry.NewTracer(opts.TraceCapacity),
		frec:        telemetry.NewRecorder(-1, opts.FlightRecorder),
		rec:         recovery.NewCoordinator(opts.Nodes, opts.ReplayLogCap, reg),
		seqs:        make(map[string]int64),
	}
	govFaults, _ := opts.Faults.(GovernanceFaultInjector)
	c.gov = newGovernor(opts.TenantQuota, reg, govFaults)
	for i := 0; i < opts.Nodes; i++ {
		n := &Node{
			ID:  i,
			in:  newInbox(opts.QueueSize),
			reg: telemetry.NewRegistry(),
			met: c.met,
			rec: telemetry.NewRecorder(i, opts.FlightRecorder),
		}
		n.engine = exastream.NewEngine(catalogFor(i), c.engineOptsFor(n))
		n.wg.Add(1)
		go n.supervise(c)
		c.nodes = append(c.nodes, n)
	}
	tr, err := c.newTransport()
	if err != nil {
		// The workers are already running; stop them before reporting.
		for _, n := range c.nodes {
			n.in.close()
		}
		for _, n := range c.nodes {
			n.wg.Wait()
		}
		return nil, err
	}
	c.tr = tr
	c.gateway = newGateway(c)
	return c, nil
}

// engineOptsFor clones the configured engine options with the node's
// error hook installed: per-query execution failures are recorded in
// the node's error ring (structured, counted) instead of aborting the
// worker loop, and repeated failures quarantine the query.
func (c *Cluster) engineOptsFor(n *Node) exastream.Options {
	o := c.opts.Engine
	// Each node's engine writes into the node's own registry (never the
	// shared cluster one): instrument names would otherwise collide
	// across nodes, and per-node Stats must stay per-node. The registry
	// outlives engine rebuilds, so counters survive worker crashes.
	o.Telemetry = n.reg
	o.Recorder = n.rec
	o.Tracer = c.tracer
	user := o.OnQueryError
	o.OnQueryError = func(queryID string, err error) {
		n.noteErr(NodeError{Node: n.ID, QueryID: queryID, Err: err})
		if user != nil {
			user(queryID, err)
		}
	}
	if f, ok := c.opts.Faults.(GovernanceFaultInjector); ok && o.Pressure == nil {
		o.Pressure = f.PressureFor
	}
	return o
}

// noteErr records an asynchronous error in the node's ring and the
// cluster error counter.
func (n *Node) noteErr(e NodeError) {
	n.errs.add(e)
	n.met.errors.Inc()
}

// noteDrop accounts one shed tuple on the node and the cluster drop
// counter.
func (n *Node) noteDrop() {
	atomic.AddInt64(&n.dropped, 1)
	n.met.dropped.Inc()
}

// Err returns (and consumes) the oldest asynchronous error a node
// recorded, if any.
func (n *Node) Err() error {
	if e, ok := n.errs.pop(); ok {
		return e.Err
	}
	return nil
}

// State reports the node's lifecycle state.
func (n *Node) State() NodeState { return NodeState(atomic.LoadInt32(&n.state)) }

// enqueue admits one work item, waiting while the node's queue is full.
// Pushes at dead nodes are accounted as drops, not errors: a dead
// worker is a routing race the caller cannot act on.
func (n *Node) enqueue(ctx context.Context, w work) error {
	if n.State() == NodeDead {
		if w.flush != nil {
			close(w.flush)
		} else {
			n.noteDrop()
		}
		return errNodeDown
	}
	err := n.in.push(ctx, w)
	if err == errNodeDown {
		if w.flush != nil {
			close(w.flush)
		} else {
			n.noteDrop()
		}
	}
	return err // nil, errNodeDown, ErrClusterClosed or ctx error
}

// Gateway returns the asynchronous registration front end.
func (c *Cluster) Gateway() *Gateway { return c.gateway }

// Tracer returns the query lifecycle tracer every node records into.
func (c *Cluster) Tracer() *telemetry.Tracer { return c.tracer }

// Recorder returns the cluster-level flight recorder (node -1; nil when
// recording is disabled), for events no node owns.
func (c *Cluster) Recorder() *telemetry.Recorder { return c.frec }

// DeclareStream declares a stream schema on every node.
func (c *Cluster) DeclareStream(s stream.Schema) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return ErrClusterClosed
	}
	key := lowerKey(s.Name)
	if _, dup := c.schemas[key]; dup {
		return fmt.Errorf("cluster: stream %q already declared", s.Name)
	}
	for _, n := range c.nodes {
		if n.State() == NodeDead {
			continue
		}
		if err := n.engine.DeclareStream(s); err != nil {
			return err
		}
	}
	c.schemas[key] = s
	return nil
}

// RegisterUDF installs a scalar UDF on every node's engine (and on any
// engine rebuilt after a crash). Call it before ingest begins.
func (c *Cluster) RegisterUDF(name string, f engine.ScalarFunc) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.udfs[name] = f
	for _, n := range c.nodes {
		if n.State() != NodeDead {
			n.engine.RegisterUDF(name, f)
		}
	}
}

// Register parses nothing (the statement is already an AST): it schedules
// the query on a live worker, retains the registration record for
// failover, and returns the chosen node id. It returns ErrNoLiveNodes
// when every worker is dead. The query's budget defaults to
// Options.Engine.MemBudget; use RegisterWith to pass an analyzed budget.
func (c *Cluster) Register(id string, stmt *sql.SelectStmt, pulse *stream.Pulse, sink exastream.Sink) (int, error) {
	return c.RegisterWith(id, stmt, pulse, sink, RegisterOptions{})
}

// RegisterOptions carries per-registration admission parameters.
type RegisterOptions struct {
	// Budget is the query's window-state byte budget, typically derived
	// by starql.AnalyzeMemory at translation time. 0 falls back to
	// Options.Engine.MemBudget (which may itself be 0 = unenforced).
	Budget int64
}

// RegisterWith is Register with explicit admission parameters: the
// tenant quota is charged, the budget is checked against per-node
// headroom (ErrOverBudget when nothing fits), and the admitted budget
// follows the query through restarts and failovers.
func (c *Cluster) RegisterWith(id string, stmt *sql.SelectStmt, pulse *stream.Pulse, sink exastream.Sink, ro RegisterOptions) (int, error) {
	tenant := TenantOf(id)
	if err := c.gov.admitRegister(tenant); err != nil {
		c.frec.Record(telemetry.EvAdmissionReject, id, tenant, 0, 0)
		return -1, err
	}
	node, err := c.registerAdmitted(id, stmt, pulse, sink, ro, tenant)
	if err != nil {
		c.gov.releaseQuery(tenant)
	}
	return node, err
}

func (c *Cluster) registerAdmitted(id string, stmt *sql.SelectStmt, pulse *stream.Pulse, sink exastream.Sink, ro RegisterOptions, tenant string) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return -1, ErrClusterClosed
	}
	if _, dup := c.queries[id]; dup {
		return -1, fmt.Errorf("cluster: query %q already registered", id)
	}
	budget := ro.Budget
	if budget == 0 {
		budget = c.opts.Engine.MemBudget
	}
	node := c.pickNodeForLocked(budget)
	if node == -1 {
		return -1, ErrNoLiveNodes
	}
	if node == -2 {
		c.gov.rejectedBudget.Inc()
		c.frec.Record(telemetry.EvAdmissionReject, id, tenant, 0, budget)
		return -1, ErrOverBudget
	}
	sink = c.guardedSink(id, sink)
	if err := c.nodes[node].engine.Register(id, stmt, pulse, sink); err != nil {
		return -1, err
	}
	if budget > 0 {
		_ = c.nodes[node].engine.SetQueryBudget(id, budget)
	}
	atomic.AddInt32(&c.nodes[node].queries, 1)
	c.nodes[node].budgetUsed += budget
	c.queries[id] = &queryRecord{id: id, stmt: stmt, streams: streamNamesOf(stmt), pulse: pulse, sink: sink, node: node, budget: budget, tenant: tenant}
	c.rebuildHostsLocked()
	return node, nil
}

// Unregister removes a query from its node.
func (c *Cluster) Unregister(id string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	rec, ok := c.queries[id]
	if !ok {
		return fmt.Errorf("cluster: unknown query %q", id)
	}
	if err := c.nodes[rec.node].engine.Unregister(id); err != nil {
		return err
	}
	atomic.AddInt32(&c.nodes[rec.node].queries, -1)
	c.nodes[rec.node].budgetUsed -= rec.budget
	c.gov.releaseQuery(rec.tenant)
	delete(c.queries, id)
	c.rec.Gate().Forget(id)
	c.rebuildHostsLocked()
	return nil
}

// guardedSink wraps a query sink with the exactly-once emit gate when
// nodes checkpoint. The wrapped sink is what queryRecord retains, so
// rebuilds and failovers reuse the same gate entry (the high-water mark
// survives the hosting node). The optional AfterEmit fault hook fires
// after each delivered window — the crash-after-emit-before-ack
// injection point.
func (c *Cluster) guardedSink(id string, sink exastream.Sink) exastream.Sink {
	if c.opts.CheckpointEvery <= 0 || sink == nil {
		return sink
	}
	var after func(string, int64)
	if f, ok := c.opts.Faults.(EmitFaultInjector); ok {
		after = f.AfterEmit
	}
	return exastream.Sink(c.rec.Gate().Wrap(id, recovery.Sink(sink), after))
}

// Resume lifts the quarantine of a suspended query so it executes
// again on its hosting node.
func (c *Cluster) Resume(id string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	rec, ok := c.queries[id]
	if !ok {
		return fmt.Errorf("cluster: unknown query %q", id)
	}
	return c.nodes[rec.node].engine.Resume(id)
}

// pickNodeLocked implements the placement strategies over live nodes
// only; dead and restarting workers are skipped. Returns -1 when no
// live node remains.
func (c *Cluster) pickNodeLocked() int { return c.pickNodeForLocked(0) }

// pickNodeForLocked is pickNodeLocked with budget-aware placement: when
// NodeMemBudget is set and the query carries a budget, nodes without
// headroom are skipped. Returns -1 when no live node remains and -2
// when live nodes exist but none can admit the budget.
func (c *Cluster) pickNodeForLocked(budget int64) int {
	live := make([]int, 0, len(c.nodes))
	anyLive := false
	for i, n := range c.nodes {
		if n.State() != NodeLive {
			continue
		}
		anyLive = true
		if c.opts.NodeMemBudget > 0 && budget > 0 && n.budgetUsed+budget > c.opts.NodeMemBudget {
			continue
		}
		live = append(live, i)
	}
	if len(live) == 0 {
		if anyLive {
			return -2
		}
		return -1
	}
	switch c.opts.Placement {
	case PlaceRoundRobin:
		n := live[c.rrNext%len(live)]
		c.rrNext++
		return n
	default:
		best, bestLoad := live[0], int64(1<<62)
		for _, i := range live {
			n := c.nodes[i]
			load := int64(atomic.LoadInt32(&n.queries))*1_000_000 + atomic.LoadInt64(&n.tuples)
			if load < bestLoad {
				best, bestLoad = i, load
			}
		}
		return best
	}
}

// rebuildHostsLocked recomputes the stream -> hosting-nodes routing
// table from the retained query records, after every registration,
// unregistration, failover and dropped restore.
func (c *Cluster) rebuildHostsLocked() {
	hosts := make(map[string][]int)
	for _, rec := range c.queries {
		for _, s := range rec.streams {
			hosts[s] = append(hosts[s], rec.node)
		}
	}
	for s, h := range hosts {
		slices.Sort(h)
		hosts[s] = slices.Compact(h)
	}
	c.streamHosts = hosts
}

// Ingest routes one tuple, waiting without a deadline while a target
// queue is full; see IngestContext for bounded waits.
func (c *Cluster) Ingest(streamName string, el stream.Timestamped) error {
	return c.IngestContext(context.Background(), streamName, el)
}

// IngestTenant is IngestContext with the tuple charged against the
// named tenant's ingest quota; ErrTenantQuota (retryable) rejects the
// tuple before it is routed. Plain Ingest/IngestContext stay uncharged:
// broadcast tuples have no single owning tenant, so rate-limiting them
// would bill innocents.
func (c *Cluster) IngestTenant(ctx context.Context, tenant, streamName string, el stream.Timestamped) error {
	if err := c.gov.admitIngest(tenant); err != nil {
		return err
	}
	return c.IngestContext(ctx, streamName, el)
}

// IngestContext routes one tuple: to the partition owner when a
// partition column is configured, otherwise to every node hosting
// queries over the stream. When a target queue is full Ingest waits
// for space, honouring ctx. Tuples routed at dead nodes are counted as
// drops, not errors.
func (c *Cluster) IngestContext(ctx context.Context, streamName string, el stream.Timestamped) error {
	key := lowerKey(streamName)
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return ErrClusterClosed
	}
	schema, ok := c.schemas[key]
	if !ok {
		c.mu.Unlock()
		return fmt.Errorf("cluster: unknown stream %q", streamName)
	}
	hosts := c.streamHosts[key]
	var seq int64
	if len(hosts) > 0 {
		// Per-stream monotonic sequence, assigned under the cluster lock
		// at routing time. Broadcast copies share one seq (it is the same
		// tuple); restored window operators use it to deduplicate replay.
		c.seqs[key]++
		seq = c.seqs[key]
	}
	c.mu.Unlock()
	if len(hosts) == 0 {
		return nil // nobody listening
	}
	if c.opts.PartitionColumn != "" {
		idx, err := schema.Tuple.IndexOf(c.opts.PartitionColumn)
		if err != nil {
			return err
		}
		h := valueHash(el.Row[idx])
		target := hosts[int(h%uint64(len(hosts)))]
		err = c.send(ctx, target, streamName, el, seq)
		if sendFailed(err) {
			return nil // counted as a drop on the node, or salvaged by failover
		}
		return err
	}
	for _, h := range hosts {
		err := c.send(ctx, h, streamName, el, seq)
		if err != nil && !sendFailed(err) {
			return err
		}
	}
	return nil
}

// valueHash is an FNV-1a hash over the value's equality key, so values
// that compare equal (Int(7) and Float(7)) route to the same node.
func valueHash(v relation.Value) uint64 {
	var kb [32]byte
	return wire.Sum(relation.AppendKey(kb[:0], v))
}

// Flush drains every live node's queue and completes open windows. It
// returns errors from the flush itself; asynchronous worker errors stay
// in the per-node rings (see Errors and NodeStats). The barrier runs
// through the transport — over TCP the flush frame queues behind every
// tuple already sent on the link, so the ordering guarantee survives
// the wire — and all nodes flush concurrently, as before.
func (c *Cluster) Flush() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return ErrClusterClosed
	}
	c.mu.Unlock()
	errs := make([]error, len(c.nodes))
	var wg sync.WaitGroup
	for i, n := range c.nodes {
		if n.State() == NodeDead {
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = c.tr.Flush(context.Background(), i)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil && err != ErrLinkDown {
			// ErrLinkDown means the node died under us; its queries
			// already failed over and the flush is vacuous there.
			return err
		}
	}
	return nil
}

// Close shuts down the workers. The cluster is unusable afterwards;
// Ingest/Flush/Register return ErrClusterClosed. Close is idempotent
// and safe to race with in-flight Ingest calls.
func (c *Cluster) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	c.mu.Unlock()
	for _, n := range c.nodes {
		n.in.close()
	}
	// The transport closes after the inboxes: in-flight deliveries fail
	// fast with ErrClusterClosed instead of blocking on a worker that is
	// draining out, and before the worker wait so no flush waiter can
	// wedge the shutdown.
	if c.tr != nil {
		_ = c.tr.Close()
	}
	for _, n := range c.nodes {
		n.wg.Wait()
	}
}

// NodeStats describes one worker's load and failure counters.
type NodeStats struct {
	Node      int
	State     NodeState
	Queries   int
	Tuples    int64
	Dropped   int64 // tuples routed at this node while dead
	Requeued  int64 // tuples salvaged from this node's queue at failover
	Restarts  int
	Suspended int   // queries quarantined on this node
	ErrTotal  int64 // asynchronous errors recorded
	ErrKept   int64 // still retained in the ring (rest were evicted)
	Engine    exastream.Stats
}

// Stats returns per-node statistics.
func (c *Cluster) Stats() []NodeStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]NodeStats, len(c.nodes))
	for i, n := range c.nodes {
		total, evicted := n.errs.counts()
		out[i] = NodeStats{
			Node:      i,
			State:     n.State(),
			Queries:   int(atomic.LoadInt32(&n.queries)),
			Tuples:    atomic.LoadInt64(&n.tuples),
			Dropped:   atomic.LoadInt64(&n.dropped),
			Requeued:  atomic.LoadInt64(&n.requeued),
			Restarts:  int(atomic.LoadInt32(&n.restarts)),
			Suspended: len(n.engine.SuspendedQueries()),
			ErrTotal:  total,
			ErrKept:   total - evicted,
			Engine:    n.engine.Stats(),
		}
	}
	return out
}

// EngineTotals sums every node's engine counters into one consistent
// snapshot. Callers that previously walked Stats() and summed fields by
// hand raced the workers between reads; each node here is read once and
// folded with Stats.Add.
func (c *Cluster) EngineTotals() exastream.Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	var t exastream.Stats
	for _, n := range c.nodes {
		t.Add(n.engine.Stats())
	}
	return t
}

// TelemetrySnapshot merges the cluster registry (supervision counters,
// per-node health gauges, refreshed here) with every node's engine
// registry. Same-named engine instruments sum across nodes, so the
// result reads as cluster-wide totals.
func (c *Cluster) TelemetrySnapshot() telemetry.Snapshot {
	c.mu.Lock()
	snaps := make([]telemetry.Snapshot, 0, len(c.nodes)+1)
	for i, n := range c.nodes {
		prefix := fmt.Sprintf("cluster.node.%d.", i)
		c.reg.Gauge(prefix + "state").Set(float64(atomic.LoadInt32(&n.state)))
		c.reg.Gauge(prefix + "queries").Set(float64(atomic.LoadInt32(&n.queries)))
		c.reg.Gauge(prefix + "tuples").Set(float64(atomic.LoadInt64(&n.tuples)))
		snaps = append(snaps, n.reg.Snapshot())
	}
	snaps = append(snaps, c.reg.Snapshot())
	c.mu.Unlock()
	return telemetry.Merge(snaps...)
}

// QueryNode reports which node hosts a query.
func (c *Cluster) QueryNode(id string) (int, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	rec, ok := c.queries[id]
	if !ok {
		return -1, false
	}
	return rec.node, true
}

// streamNamesOf lists the distinct stream names a statement references.
func streamNamesOf(stmt *sql.SelectStmt) []string {
	seen := map[string]struct{}{}
	var out []string
	var visitRef func(tr *sql.TableRef)
	var visitStmt func(s *sql.SelectStmt)
	visitRef = func(tr *sql.TableRef) {
		if tr.IsStream {
			key := lowerKey(tr.Table)
			if _, dup := seen[key]; !dup {
				seen[key] = struct{}{}
				out = append(out, key)
			}
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
