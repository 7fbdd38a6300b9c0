// Package faults is a deterministic, seedable fault-injection layer for
// chaos-testing the cluster runtime. An Injector satisfies
// cluster.FaultInjector: it hooks each worker's loop before a tuple is
// processed and can panic (simulated worker crash, handled by the
// supervisor), return an error (simulated ingest failure), or sleep
// (simulated slow node, which exercises backpressure).
//
// Triggers are counter-based — "the Nth tuple this node processes" —
// so chaos runs replay identically, or probabilistic with a seeded
// generator so a failing run reproduces from its seed.
package faults

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// Kind classifies an injected fault.
type Kind int

const (
	// KindPanic crashes the worker goroutine.
	KindPanic Kind = iota
	// KindError fails the ingest of one tuple.
	KindError
	// KindDelay stalls the worker, simulating a slow node.
	KindDelay
	// KindCrashCheckpoint crashes the worker at the start of a
	// checkpoint attempt (the previous checkpoint stays authoritative).
	KindCrashCheckpoint
	// KindTornCheckpoint corrupts a checkpoint's bytes mid-write; the
	// store's verification detects it and falls back.
	KindTornCheckpoint
	// KindCrashEmit crashes the worker right after a window was
	// delivered, before the sender could acknowledge it — the recovery
	// gate must not deliver that window again.
	KindCrashEmit
	// KindMemPressure adds synthetic bytes to a query's measured window
	// state, pushing it over its budget so the engine's degradation
	// policy fires deterministically.
	KindMemPressure
	// KindNetDelay stalls a frame before it is written — a slow link;
	// everything behind it on the link waits too.
	KindNetDelay
	// KindNetReset closes a link's connection right after a frame is
	// written (the transport reconnects and resumes the session).
	KindNetReset
	// KindNetPartition counts the times a cut link held its traffic
	// (CutLink, or a CutLinkAtFrame trigger once it fired).
	KindNetPartition
	// KindQuotaExhausted forces a tenant's admission checks to fail with
	// the retryable quota error.
	KindQuotaExhausted
)

func (k Kind) String() string {
	switch k {
	case KindPanic:
		return "panic"
	case KindError:
		return "error"
	case KindCrashCheckpoint:
		return "crash-checkpoint"
	case KindTornCheckpoint:
		return "torn-checkpoint"
	case KindCrashEmit:
		return "crash-emit"
	case KindMemPressure:
		return "mem-pressure"
	case KindQuotaExhausted:
		return "quota-exhausted"
	case KindNetDelay:
		return "net-delay"
	case KindNetReset:
		return "net-reset"
	case KindNetPartition:
		return "net-partition"
	default:
		return "delay"
	}
}

// ErrInjected is the error returned by injected ingest failures.
var ErrInjected = errors.New("faults: injected ingest error")

// PanicValue is the value injected panics carry, so supervisors and
// tests can recognise a simulated crash.
const PanicValue = "faults: injected worker panic"

// CheckpointPanicValue is carried by crash-during-checkpoint panics.
const CheckpointPanicValue = "faults: injected crash during checkpoint"

// EmitPanicValue is carried by crash-after-emit panics.
const EmitPanicValue = "faults: injected crash after emit"

// AnyNode matches every node in a rule.
const AnyNode = -1

type rule struct {
	node   int // AnyNode or a node id
	kind   Kind
	at     int64   // fire when the node's tuple count reaches at (1-based)
	every  int64   // and every `every` tuples after that; 0 = fire once
	prob   float64 // probabilistic alternative to at/every
	delay  time.Duration
	stream string // restrict to one stream; "" = any
}

func (r rule) matches(node int, stream string, count int64, rng *rand.Rand) bool {
	if r.node != AnyNode && r.node != node {
		return false
	}
	if r.stream != "" && r.stream != stream {
		return false
	}
	if r.prob > 0 {
		return rng.Float64() < r.prob
	}
	if count < r.at {
		return false
	}
	if count == r.at {
		return true
	}
	return r.every > 0 && (count-r.at)%r.every == 0
}

// Injector injects worker faults according to its rules. All methods
// are safe for concurrent use; rule setup should happen before the
// workload starts for reproducible runs.
type Injector struct {
	mu       sync.Mutex
	rng      *rand.Rand
	rules    []rule
	seen     map[int]int64 // node -> tuples observed
	injected map[Kind]int64

	// Recovery chaos triggers, keyed by the same counter style as the
	// tuple rules: "the node's nth checkpoint attempt", "the query's nth
	// emitted window". Checkpoint attempts are counted in
	// BeforeCheckpoint; TearCheckpoint consults the same attempt without
	// advancing it (both hooks describe one attempt).
	ckptSeen  map[int]int64
	emitSeen  map[string]int64
	crashCkpt map[int]map[int64]bool
	tearCkpt  map[int]map[int64]bool
	crashEmit map[string]map[int64]bool

	// Governance chaos state: synthetic per-query memory pressure (bytes
	// added to the engine's usage measurement) and tenants whose quota
	// admissions are forced to fail.
	pressure  map[string]int64
	exhausted map[string]bool

	// Network chaos state (the transport.NetFaultInjector hooks): frame
	// rules run on the deterministic clock of "the nth data/flush frame
	// written towards the node", cuts are explicit link stalls that
	// CutLinkAtFrame can also arm on that same frame clock (cutAt maps a
	// node to its trigger frame).
	netRules []netRule
	cut      map[int]bool
	cutAt    map[int]int64
}

// netRule is one frame-schedule rule: fire on the node's nth outbound
// data/flush frame (1-based), and every `every` frames after that.
type netRule struct {
	node  int
	kind  Kind
	at    int64
	every int64
	delay time.Duration
}

func (r netRule) matches(node int, nth int64) bool {
	if r.node != AnyNode && r.node != node {
		return false
	}
	if nth < r.at {
		return false
	}
	if nth == r.at {
		return true
	}
	return r.every > 0 && (nth-r.at)%r.every == 0
}

// New returns an injector whose probabilistic rules draw from a
// generator seeded with seed (counter-based rules need no randomness).
func New(seed int64) *Injector {
	return &Injector{
		rng:       rand.New(rand.NewSource(seed)),
		seen:      make(map[int]int64),
		injected:  make(map[Kind]int64),
		ckptSeen:  make(map[int]int64),
		emitSeen:  make(map[string]int64),
		crashCkpt: make(map[int]map[int64]bool),
		tearCkpt:  make(map[int]map[int64]bool),
		crashEmit: make(map[string]map[int64]bool),
		pressure:  make(map[string]int64),
		exhausted: make(map[string]bool),
		cut:       make(map[int]bool),
		cutAt:     make(map[int]int64),
	}
}

// PanicAt crashes the worker when node processes its nth tuple.
func (i *Injector) PanicAt(node int, nth int64) *Injector {
	return i.add(rule{node: node, kind: KindPanic, at: nth})
}

// PanicWithProb crashes the worker with probability p per tuple.
func (i *Injector) PanicWithProb(node int, p float64) *Injector {
	return i.add(rule{node: node, kind: KindPanic, prob: p})
}

// ErrorAt fails the ingest of node's nth tuple.
func (i *Injector) ErrorAt(node int, nth int64) *Injector {
	return i.add(rule{node: node, kind: KindError, at: nth})
}

// ErrorEvery fails every everyth ingest on node, starting with the
// everyth tuple.
func (i *Injector) ErrorEvery(node int, every int64) *Injector {
	return i.add(rule{node: node, kind: KindError, at: every, every: every})
}

// DelayEvery stalls node for d before every everyth tuple (every=1
// slows every tuple).
func (i *Injector) DelayEvery(node int, every int64, d time.Duration) *Injector {
	return i.add(rule{node: node, kind: KindDelay, at: every, every: every, delay: d})
}

// CrashAtCheckpoint crashes the worker at the start of node's nth
// checkpoint attempt (1-based): the state is exported but never
// committed, so recovery must fall back to the previous checkpoint plus
// the replay log.
func (i *Injector) CrashAtCheckpoint(node int, nth int64) *Injector {
	i.mu.Lock()
	defer i.mu.Unlock()
	if i.crashCkpt[node] == nil {
		i.crashCkpt[node] = make(map[int64]bool)
	}
	i.crashCkpt[node][nth] = true
	return i
}

// TearCheckpointAt corrupts the bytes of node's nth checkpoint attempt
// (1-based), simulating a crash mid-write: the commit happens but fails
// verification, and restores fall back to the previous checkpoint.
func (i *Injector) TearCheckpointAt(node int, nth int64) *Injector {
	i.mu.Lock()
	defer i.mu.Unlock()
	if i.tearCkpt[node] == nil {
		i.tearCkpt[node] = make(map[int64]bool)
	}
	i.tearCkpt[node][nth] = true
	return i
}

// CrashAfterEmit crashes the worker right after the query's nth window
// (1-based, counting delivered windows) leaves the emit gate — after
// delivery, before acknowledgement. Recovery replays the window's
// inputs, and the gate's high-water mark must suppress the duplicate.
func (i *Injector) CrashAfterEmit(queryID string, nth int64) *Injector {
	i.mu.Lock()
	defer i.mu.Unlock()
	if i.crashEmit[queryID] == nil {
		i.crashEmit[queryID] = make(map[int64]bool)
	}
	i.crashEmit[queryID][nth] = true
	return i
}

// OnStream restricts the most recently added rule to one stream name.
func (i *Injector) OnStream(name string) *Injector {
	i.mu.Lock()
	defer i.mu.Unlock()
	if len(i.rules) > 0 {
		i.rules[len(i.rules)-1].stream = name
	}
	return i
}

func (i *Injector) add(r rule) *Injector {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.rules = append(i.rules, r)
	return i
}

// Injected reports how many faults of a kind have fired.
func (i *Injector) Injected(k Kind) int64 {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.injected[k]
}

// BeforeProcess implements cluster.FaultInjector. Delay rules act
// first, then at most one panic or error fires per tuple (panic wins).
func (i *Injector) BeforeProcess(node int, stream string) error {
	i.mu.Lock()
	i.seen[node]++
	count := i.seen[node]
	var delay time.Duration
	doPanic := false
	var err error
	for _, r := range i.rules {
		if !r.matches(node, stream, count, i.rng) {
			continue
		}
		switch r.kind {
		case KindDelay:
			delay += r.delay
		case KindPanic:
			doPanic = true
		case KindError:
			if err == nil {
				err = fmt.Errorf("%w (node %d, tuple %d)", ErrInjected, node, count)
			}
		}
	}
	if delay > 0 {
		i.injected[KindDelay]++
	}
	if doPanic {
		i.injected[KindPanic]++
	} else if err != nil {
		i.injected[KindError]++
	}
	i.mu.Unlock()
	if delay > 0 {
		time.Sleep(delay)
	}
	if doPanic {
		panic(PanicValue)
	}
	return err
}

// BeforeCheckpoint implements cluster.CheckpointFaultInjector: it counts
// the node's checkpoint attempt and crashes the worker when a
// CrashAtCheckpoint rule matches.
func (i *Injector) BeforeCheckpoint(node int) {
	i.mu.Lock()
	i.ckptSeen[node]++
	fire := i.crashCkpt[node][i.ckptSeen[node]]
	if fire {
		i.injected[KindCrashCheckpoint]++
	}
	i.mu.Unlock()
	if fire {
		panic(CheckpointPanicValue)
	}
}

// TearCheckpoint implements cluster.CheckpointFaultInjector: it reports
// whether the current attempt's bytes should be corrupted. It reads the
// attempt counter BeforeCheckpoint advanced — the two hooks describe the
// same attempt.
func (i *Injector) TearCheckpoint(node int) bool {
	i.mu.Lock()
	defer i.mu.Unlock()
	if i.tearCkpt[node][i.ckptSeen[node]] {
		i.injected[KindTornCheckpoint]++
		return true
	}
	return false
}

// PressureOn attributes bytes of synthetic memory pressure to a query:
// every budget-enforcement pass sees the query's measured usage
// inflated by this amount until the pressure is changed or cleared
// (bytes <= 0 clears). It stands in for a genuinely unbounded query
// without having to grow real state.
func (i *Injector) PressureOn(queryID string, bytes int64) *Injector {
	i.mu.Lock()
	defer i.mu.Unlock()
	if bytes <= 0 {
		delete(i.pressure, queryID)
	} else {
		i.pressure[queryID] = bytes
	}
	return i
}

// ExhaustTenant forces every quota admission for the tenant to fail
// until RestoreTenant is called.
func (i *Injector) ExhaustTenant(tenant string) *Injector {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.exhausted[tenant] = true
	return i
}

// RestoreTenant lifts ExhaustTenant.
func (i *Injector) RestoreTenant(tenant string) *Injector {
	i.mu.Lock()
	defer i.mu.Unlock()
	delete(i.exhausted, tenant)
	return i
}

// PressureFor implements cluster.GovernanceFaultInjector: the synthetic
// bytes added to the query's measured usage this pass.
func (i *Injector) PressureFor(queryID string) int64 {
	i.mu.Lock()
	defer i.mu.Unlock()
	b := i.pressure[queryID]
	if b > 0 {
		i.injected[KindMemPressure]++
	}
	return b
}

// TenantExhausted implements cluster.GovernanceFaultInjector: whether
// the tenant's admissions are currently forced to fail.
func (i *Injector) TenantExhausted(tenant string) bool {
	i.mu.Lock()
	defer i.mu.Unlock()
	if i.exhausted[tenant] {
		i.injected[KindQuotaExhausted]++
		return true
	}
	return false
}

// AfterEmit implements cluster.EmitFaultInjector: it counts the query's
// delivered windows and crashes the worker when a CrashAfterEmit rule
// matches. The panic unwinds through the engine's execution path into
// the supervisor, exactly like a crash between delivery and ack.
func (i *Injector) AfterEmit(queryID string, windowEnd int64) {
	i.mu.Lock()
	i.emitSeen[queryID]++
	fire := i.crashEmit[queryID][i.emitSeen[queryID]]
	if fire {
		i.injected[KindCrashEmit]++
	}
	i.mu.Unlock()
	if fire {
		panic(EmitPanicValue)
	}
}

// ---- network chaos (the transport.NetFaultInjector hooks) ----
//
// Network faults model only what a TCP connection can show: a stall
// (a cut link holds its traffic until healed), a delay, or a closed
// connection. A live connection never loses, duplicates or reorders a
// frame, so no rule does.

// DelayFrameEvery stalls every everyth frame towards node for d before
// it is written — a slow link (every=1 slows every frame).
func (i *Injector) DelayFrameEvery(node int, every int64, d time.Duration) *Injector {
	return i.addNet(netRule{node: node, kind: KindNetDelay, at: every, every: every, delay: d})
}

// ResetLinkAtFrame closes node's connection right after the nth
// data/flush frame towards node (1-based) is written: the transport
// reconnects, resumes the session, and retransmits what the receiver
// has not acknowledged.
func (i *Injector) ResetLinkAtFrame(node int, nth int64) *Injector {
	return i.addNet(netRule{node: node, kind: KindNetReset, at: nth})
}

// CutLink cuts node's link: neither end writes to it, and its traffic
// waits, until HealLink.
func (i *Injector) CutLink(node int) *Injector {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.cut[node] = true
	return i
}

// HealLink reconnects node's link (lifts CutLink and disarms a pending
// CutLinkAtFrame trigger).
func (i *Injector) HealLink(node int) *Injector {
	i.mu.Lock()
	defer i.mu.Unlock()
	delete(i.cut, node)
	delete(i.cutAt, node)
	return i
}

// CutLinkAtFrame arms a deterministic cut: the link to node is cut
// right after the transport writes its nth data/flush frame towards
// the node, so the frames after it wait for HealLink.
func (i *Injector) CutLinkAtFrame(node int, nth int64) *Injector {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.cutAt[node] = nth
	return i
}

func (i *Injector) addNet(r netRule) *Injector {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.netRules = append(i.netRules, r)
	return i
}

// NetPartitioned implements transport.NetFaultInjector: whether node's
// link is currently cut.
func (i *Injector) NetPartitioned(node int) bool {
	i.mu.Lock()
	defer i.mu.Unlock()
	if i.cut[node] {
		i.injected[KindNetPartition]++
		return true
	}
	return false
}

// NetFrameAction implements transport.NetFaultInjector: the fault
// schedule for the nth data/flush frame written towards node. Delays
// stack; a reset closes the connection once the frame is written. A
// CutLinkAtFrame trigger reaching its frame cuts the link.
func (i *Injector) NetFrameAction(node int, nth int64) (reset bool, delay time.Duration) {
	i.mu.Lock()
	defer i.mu.Unlock()
	if at, ok := i.cutAt[node]; ok && nth >= at {
		i.cut[node] = true
		delete(i.cutAt, node)
	}
	for _, r := range i.netRules {
		if !r.matches(node, nth) {
			continue
		}
		switch r.kind {
		case KindNetReset:
			reset = true
		case KindNetDelay:
			delay += r.delay
		}
	}
	if reset {
		i.injected[KindNetReset]++
	}
	if delay > 0 {
		i.injected[KindNetDelay]++
	}
	return reset, delay
}

// LinkCut reports whether node's link is currently cut. A pending
// CutLinkAtFrame trigger that has not fired yet reports false — tests
// use this to wait for an armed cut to bite before healing it.
func (i *Injector) LinkCut(node int) bool {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.cut[node]
}
