// Package recovery implements pulse-aligned checkpoint/restore with
// exactly-once window delivery for the cluster runtime.
//
// Each worker node periodically serializes its stream state — each
// window operator once, the staged partial windows of every query, and
// per-stream ingest cursors — into a Checkpoint taken on a window-end
// boundary, so every snapshot is a consistent cut. A bounded replay Log
// retains the tuples processed since the last checkpoint. When a worker
// crashes, the supervisor restores the victim's latest checkpoint onto
// the recovery target and re-feeds the logged tuples; each restored
// operator's sequence cursor makes the replay idempotent, and the emit Gate
// suppresses windows at or below each query's emitted high-water mark,
// so downstream observers see every window exactly once — no loss, no
// duplicates.
//
// The design leans on the bounded-memory criteria of Schiff & Özçep
// (arXiv:2007.16040): the per-window state of the STARQL-style queries
// this system runs is boundable, which is what makes cheap pulse-aligned
// snapshots feasible.
package recovery

import (
	"sort"
	"sync"

	"repro/internal/relation"
	"repro/internal/stream"
)

// Tuple is one logged stream element: the element itself plus the
// per-stream ingest sequence number the cluster assigned at routing
// time. Sequence numbers are 1-based; 0 means "unsequenced" and is
// never filtered.
type Tuple struct {
	Stream string
	Seq    int64
	TS     int64
	Row    relation.Tuple
}

// PendingWindow is one staged-but-incomplete window of a multi-ref
// query: batches delivered for some stream references while others are
// still open.
type PendingWindow struct {
	End     int64
	Batches map[int]stream.Batch
}

// QueryState is the serialized per-query execution state at a cut: the
// window operator each stream reference reads, the staged partial
// windows and quarantine bookkeeping.
type QueryState struct {
	ID string
	// Windows has one entry per stream reference: the index in
	// EngineState.Windows of the operator it reads, or -1 for none.
	Windows   []int
	Pending   []PendingWindow
	Failures  int
	Suspended bool
	// Governance state: the query's byte budget survives
	// restore/failover, so a restored query keeps the budget it was
	// admitted with.
	Budget int64
}

// EngineState is one engine's exported stream state: each window
// operator once, however many queries read it, and every registered
// query.
type EngineState struct {
	Windows []Window
	Queries []QueryState
}

// Window is one window operator at the cut: its state, and the replay
// cursor of an operator that was itself restored — the highest ingest
// sequence number it has applied. A live operator keeps no cursor (Seq
// is 0), and is restored at the cut's cursor for its stream.
type Window struct {
	stream.WindowState
	Seq int64
}

// Query returns the state of one query, or nil when the state is nil or
// predates the query's registration.
func (s *EngineState) Query(id string) *QueryState {
	if s == nil {
		return nil
	}
	for i := range s.Queries {
		if s.Queries[i].ID == id {
			return &s.Queries[i]
		}
	}
	return nil
}

// Window returns the operator state a query's ref-th stream reference
// reads, or nil when it reads none.
func (s *EngineState) Window(q *QueryState, ref int) *Window {
	if q == nil || ref < 0 || ref >= len(q.Windows) || q.Windows[ref] < 0 || q.Windows[ref] >= len(s.Windows) {
		return nil
	}
	return &s.Windows[q.Windows[ref]]
}

// Checkpoint is one node's consistent cut: the engine state, the
// per-stream ingest cursors at the cut (replay resumes after them), and
// the emitted-window high-water marks at the time of the cut
// (informational — the authoritative marks live in the Gate, which
// survives node death).
type Checkpoint struct {
	Node      int
	TakenAtMS int64
	Cursors   map[string]int64
	EmitHWM   map[string]int64
	Engine    EngineState
}

// State returns the checkpointed engine state, or nil for a nil
// checkpoint.
func (c *Checkpoint) State() *EngineState {
	if c == nil {
		return nil
	}
	return &c.Engine
}

// ---- store ----

// store retains the last two committed checkpoint blobs per node. The
// latest blob's frame (length and checksum) is verified at save time; a
// torn write is reported to the caller (which must then keep its replay
// log intact) and Latest falls back to the previous blob.
type store struct {
	mu    sync.Mutex
	cur   map[int][]byte
	prev  map[int][]byte
	saved map[int]int64 // TakenAtMS of the current blob, for age accounting
}

func newStore() *store {
	return &store{cur: map[int][]byte{}, prev: map[int][]byte{}, saved: map[int]int64{}}
}

// save commits a blob for a node, shifting the previous current blob to
// the fallback slot, and returns the superseded blob's TakenAtMS (0 when
// none).
func (s *store) save(node int, blob []byte, takenAtMS int64) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if old, ok := s.cur[node]; ok {
		s.prev[node] = old
	}
	s.cur[node] = blob
	prevAt := s.saved[node]
	s.saved[node] = takenAtMS
	return prevAt
}

// recycle takes the node's previous blob, which the next save drops,
// out of the store and returns it emptied to encode the next blob into,
// or a new buffer when it holds less than the current blob plus an
// eighth (so a steady checkpoint encodes without regrowing). The store
// keeps at most two blobs per node either way.
func (s *store) recycle(node int) []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := len(s.cur[node])
	want := n + n/8
	buf := s.prev[node]
	delete(s.prev, node)
	if cap(buf) < want {
		return make([]byte, 0, want)
	}
	return buf[:0]
}

// latest returns the newest decodable checkpoint for a node. torn
// reports whether the current blob was unreadable and the previous one
// was used instead.
func (s *store) latest(node int) (ck *Checkpoint, torn bool) {
	s.mu.Lock()
	cur, prev := s.cur[node], s.prev[node]
	s.mu.Unlock()
	if cur != nil {
		if ck, err := Decode(cur); err == nil {
			return ck, false
		}
	}
	if prev != nil {
		if ck, err := Decode(prev); err == nil {
			return ck, true
		}
	}
	return nil, cur != nil
}

// MergeFeeds merges replay feeds from several sources (victim log,
// salvaged queue, target log) into one deduplicated sequence ordered by
// (stream, seq). Per-stream sequence order is processing order; the
// restored operators' cursors make any residual overlap with live
// traffic idempotent.
func MergeFeeds(feeds ...[]Tuple) []Tuple {
	var out []Tuple
	for _, f := range feeds {
		out = append(out, f...)
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Stream != out[j].Stream {
			return out[i].Stream < out[j].Stream
		}
		return out[i].Seq < out[j].Seq
	})
	kept := out[:0]
	for i, t := range out {
		if i > 0 && t.Stream == out[i-1].Stream && t.Seq == out[i-1].Seq && t.Seq != 0 {
			continue
		}
		kept = append(kept, t)
	}
	return kept
}
