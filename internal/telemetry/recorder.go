package telemetry

import (
	"sort"
	"sync"
	"time"
)

// EventKind identifies what a flight-recorder event records.
type EventKind uint8

// Flight-recorder event kinds. The recorder stores the enum; Events()
// decodes it to the snake_case wire name.
const (
	EvWindowExec EventKind = iota
	EvDegradeShed
	EvCheckpoint
	EvRestore
	EvFailover
	EvQuarantine
	EvAdmissionReject
	EvRestart
	// Transport link lifecycle (Value = node id): a link's first
	// successful session handshake, an established connection lost, a
	// reconnect with session resumption, the failure detector
	// suspecting a silent node, and a suspicion-triggered failover
	// migrating the node's queries.
	EvLinkUp
	EvLinkDown
	EvLinkReconnect
	EvLinkSuspect
	EvTransportFailover
	// A declared mapping constraint the static catalog violates (Query
	// = the constraint, Value = the rows that witness it): unfolding
	// stops using it.
	EvConstraintViolation
	numEventKinds // keep last
)

var eventKindNames = [numEventKinds]string{
	"window_exec", "degrade_shed",
	"checkpoint", "restore", "failover", "quarantine",
	"admission_reject", "restart",
	"link_up", "link_down", "link_reconnect", "link_suspect",
	"transport_failover", "constraint_violation",
}

func (k EventKind) String() string {
	if k >= numEventKinds {
		return "unknown"
	}
	return eventKindNames[k]
}

// Event is the decoded, JSON-friendly form of one flight-recorder
// entry. Value carries a kind-specific quantity: window wall ns for
// window_exec, bytes shed for degrade_shed, and so on —
// docs/observability.md tabulates the schema per kind.
type Event struct {
	Seq       uint64 `json:"seq"`
	TimeUnix  int64  `json:"time_unix_ns"`
	Kind      string `json:"kind"`
	Node      int    `json:"node"`
	Query     string `json:"query,omitempty"`
	Tenant    string `json:"tenant,omitempty"`
	WindowEnd int64  `json:"window_end_ms,omitempty"`
	Value     int64  `json:"value,omitempty"`
}

// eventRec is the compact in-ring representation: fixed size, no
// pointers beyond the two string headers, so recording never
// allocates.
type eventRec struct {
	seq       uint64
	t         int64
	windowEnd int64
	value     int64
	query     string
	tenant    string
	kind      EventKind
}

// Recorder is a bounded flight recorder: a mutex-guarded ring of
// recent structured events, the "black box" dumped after an incident.
// A nil *Recorder is the disabled recorder — Record on it is a
// single predictable branch with zero allocations, so call sites
// stay unconditional and hot paths pay nothing when recording is off.
type Recorder struct {
	node int
	mu   sync.Mutex
	seq  uint64
	buf  []eventRec
	next int // next write slot
	full bool
}

// NewRecorder returns a recorder attributed to node holding the most
// recent capacity events. capacity <= 0 returns nil, the disabled
// recorder.
func NewRecorder(node, capacity int) *Recorder {
	if capacity <= 0 {
		return nil
	}
	return &Recorder{node: node, buf: make([]eventRec, capacity)}
}

// Record appends one event, overwriting the oldest once the ring is
// full. The signature is deliberately non-variadic with scalar/string
// arguments so no call boxes into interfaces: the disabled (nil) path
// is zero-alloc and the enabled path allocates nothing beyond the
// preallocated ring.
func (r *Recorder) Record(kind EventKind, query, tenant string, windowEnd, value int64) {
	if r == nil {
		return
	}
	now := time.Now().UnixNano()
	r.mu.Lock()
	r.seq++
	r.buf[r.next] = eventRec{
		seq:       r.seq,
		t:         now,
		windowEnd: windowEnd,
		value:     value,
		query:     query,
		tenant:    tenant,
		kind:      kind,
	}
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
		r.full = true
	}
	r.mu.Unlock()
}

// Len reports how many events the ring currently holds.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.full {
		return len(r.buf)
	}
	return r.next
}

// Events decodes the retained ring, oldest first. A nil recorder
// yields nil.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	recs := make([]eventRec, 0, len(r.buf))
	if r.full {
		recs = append(recs, r.buf[r.next:]...)
	}
	recs = append(recs, r.buf[:r.next]...)
	node := r.node
	r.mu.Unlock()

	out := make([]Event, len(recs))
	for i, rec := range recs {
		out[i] = Event{
			Seq:       rec.seq,
			TimeUnix:  rec.t,
			Kind:      rec.kind.String(),
			Node:      node,
			Query:     rec.query,
			Tenant:    rec.tenant,
			WindowEnd: rec.windowEnd,
			Value:     rec.value,
		}
	}
	return out
}

// MergeEvents interleaves per-node event dumps into one timeline
// ordered by wall time (sequence breaks ties within a node).
func MergeEvents(dumps ...[]Event) []Event {
	var n int
	for _, d := range dumps {
		n += len(d)
	}
	out := make([]Event, 0, n)
	for _, d := range dumps {
		out = append(out, d...)
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].TimeUnix != out[j].TimeUnix {
			return out[i].TimeUnix < out[j].TimeUnix
		}
		if out[i].Node != out[j].Node {
			return out[i].Node < out[j].Node
		}
		return out[i].Seq < out[j].Seq
	})
	return out
}

// QueryLag summarizes one registered query's runtime position for the
// fleet lag view: how far behind the engine-wide event-time frontier
// it is, how much window state it is holding, and whether it is
// quarantined. exastream computes the per-query values; cluster
// stamps Node/Tenant when aggregating across the fleet.
type QueryLag struct {
	ID      string `json:"id"`
	Node    int    `json:"node"`
	Tenant  string `json:"tenant,omitempty"`
	State   string `json:"state"` // running | suspended
	Windows int64  `json:"windows"`
	RowsOut int64  `json:"rows_out"`
	// LastWindowEnd is the event-time end (ms) of the newest window the
	// query executed; WatermarkLagMS is the engine frontier minus that —
	// 0 for the query defining the frontier, growing when it lags.
	LastWindowEnd  int64 `json:"last_window_end_ms"`
	WatermarkLagMS int64 `json:"watermark_lag_ms"`
	// BacklogBytes is staged-but-unexecuted window state attributable to
	// the query: the window operators no other query reads, plus its
	// staged batches.
	BacklogBytes  int64 `json:"backlog_bytes"`
	BudgetBytes   int64 `json:"budget_bytes,omitempty"`
	HeadroomBytes int64 `json:"headroom_bytes,omitempty"`
}
