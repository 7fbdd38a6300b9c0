// Package stream implements the streaming substrate of ExaStream: CQL
// time-based sliding windows with snapshot semantics (Arasu et al., the
// semantics the paper's SQL(+) dialect conforms to), the paper's
// timeSlidingWindow operator, which groups tuples into windows and tags
// them with window ids, and the pulse clock that paces query output. The
// paper's wCache role (many concurrent queries share one window
// materialisation) is played by the exastream engine, which runs one
// operator per (stream, window) and hands each emitted batch to every
// subscribed query.
package stream

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/relation"
)

// Timestamped is one stream element: a relational tuple plus its
// timestamp in milliseconds.
type Timestamped struct {
	TS  int64
	Row relation.Tuple
}

// Schema describes a stream: a name, the tuple schema, and which column
// carries the timestamp (the generator keeps them consistent).
type Schema struct {
	Name  string
	Tuple relation.Schema
	TSCol string
}

// Validate checks that the timestamp column exists.
func (s Schema) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("stream: empty stream name")
	}
	if _, err := s.Tuple.IndexOf(s.TSCol); err != nil {
		return fmt.Errorf("stream: %s: timestamp column: %w", s.Name, err)
	}
	return nil
}

// WindowSpec is a time-based sliding window: at every pulse time
// t_i = Start + i*Slide the window holds tuples with t_i-Range < ts <= t_i
// (half-open on the left, the usual CQL convention, so tumbling windows
// partition the stream and boundary tuples are never double-counted).
type WindowSpec struct {
	RangeMS int64
	SlideMS int64
	StartMS int64
}

// Validate rejects non-positive ranges and slides.
func (w WindowSpec) Validate() error {
	if w.RangeMS <= 0 || w.SlideMS <= 0 {
		return fmt.Errorf("stream: window range and slide must be positive, got %d/%d", w.RangeMS, w.SlideMS)
	}
	return nil
}

// PulseTime returns t_i for window id i.
func (w WindowSpec) PulseTime(id int64) int64 { return w.StartMS + id*w.SlideMS }

// WindowsFor returns the inclusive range [lo, hi] of window ids whose
// interval contains a tuple at ts; ok is false when no window contains it
// (ts before the first pulse's coverage).
func (w WindowSpec) WindowsFor(ts int64) (lo, hi int64, ok bool) {
	// Need: PulseTime(i) - Range < ts <= PulseTime(i)
	// i >= (ts - Start)/Slide            (ceil)
	// i <  (ts + Range - Start)/Slide    (strict; ceil-1 handles exact hits)
	lo = ceilDiv(ts-w.StartMS, w.SlideMS)
	if lo < 0 {
		lo = 0
	}
	hi = ceilDiv(ts+w.RangeMS-w.StartMS, w.SlideMS) - 1
	return lo, hi, hi >= lo && hi >= 0
}

func ceilDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 && (a > 0) == (b > 0) {
		q++
	}
	return q
}

func floorDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 && (a > 0) != (b > 0) {
		q--
	}
	return q
}

// Batch is the contents of one window instance: the paper's
// timeSlidingWindow operator "groups tuples that belong to the same time
// window and associates them with a unique window id".
type Batch struct {
	WindowID int64
	Start    int64 // exclusive window start (PulseTime - Range)
	End      int64 // inclusive window end (PulseTime)
	Rows     []relation.Tuple

	// cols, when non-nil, is a shared lazy cell holding the batch's
	// columnar form. The window operator allocates it at emission time,
	// before the batch value is copied into the per-query deliveries, so
	// every copy transposes at most once between them.
	// The checkpoint codec writes only the exported fields, so
	// checkpoints are byte-identical whether or not a window was ever
	// transposed.
	cols *colCell
}

// colCell is the share point of a batch's lazy transpose. Copies of a
// Batch carry the same pointer; the first Columns call materialises the
// columnar form once for all of them.
type colCell struct {
	once sync.Once
	cb   atomic.Pointer[relation.ColBatch]
	// rowBytes memoizes the flat-row byte estimate (Σ tupleBytes). A
	// batch's rows are immutable once it is emitted — the point the cell
	// is attached — so the sum is computed at most once per batch no
	// matter how many copies or governance checks ask for it. 0 means
	// not yet computed (an empty row set just recomputes, trivially).
	rowBytes atomic.Int64
}

// ensureColumnCell gives the batch a columnar cell so copies made from
// it share one transpose. Idempotent; called at every emission point.
func (b *Batch) ensureColumnCell() {
	if b.cols == nil {
		b.cols = &colCell{}
	}
}

// Columns returns the batch in columnar form, transposing on first use.
// Batches emitted by a window operator share one transpose across all
// copies; a zero-built Batch (e.g. decoded from a checkpoint) transposes
// privately. Safe for concurrent use.
func (b Batch) Columns() *relation.ColBatch {
	c := b.cols
	if c == nil {
		return relation.Transpose(b.Rows)
	}
	c.once.Do(func() { c.cb.Store(relation.Transpose(b.Rows)) })
	return c.cb.Load()
}

// Columnar reports whether the columnar form has been materialised
// (and therefore contributes to Bytes).
func (b Batch) Columnar() bool {
	return b.cols != nil && b.cols.cb.Load() != nil
}

// Byte-estimate model for governance accounting. Values are flat
// structs (~48 B: tag + three scalars) plus string payload; tuples and
// batches add slice-header overhead. The estimates only need to be
// consistent and monotone in the real footprint — budgets and shed
// decisions compare them against each other, never against the
// allocator.
const (
	batchOverheadBytes = 64
	tupleOverheadBytes = 24
	valueOverheadBytes = 48
)

func tupleBytes(row relation.Tuple) int64 {
	n := int64(tupleOverheadBytes)
	for _, v := range row {
		n += valueOverheadBytes + int64(len(v.Str))
	}
	return n
}

// Bytes estimates the batch's memory footprint under the accounting
// model used for window budgets. A batch whose columnar form has been
// materialised carries both layouts in memory, so the estimate covers
// both: the flat row model plus the column vectors (typed payloads and
// null bitmaps; see relation's Vector/ColBatch byte model).
func (b Batch) Bytes() int64 {
	if c := b.cols; c != nil {
		rb := c.rowBytes.Load()
		if rb == 0 {
			for _, row := range b.Rows {
				rb += tupleBytes(row)
			}
			c.rowBytes.Store(rb)
		}
		return batchOverheadBytes + rb + c.cb.Load().Bytes() // nil-safe: 0 until materialised
	}
	n := int64(batchOverheadBytes)
	for _, row := range b.Rows {
		n += tupleBytes(row)
	}
	return n
}

// TimeSlidingWindow consumes an ordered stream of timestamped tuples and
// emits completed window batches. Tuples that fall into several
// overlapping windows (Range > Slide) are placed in each.
//
// The operator assumes non-decreasing timestamps; late tuples are counted
// and dropped (the stream generator never produces them, but failure
// injection tests do).
//
// Open-window bytes are accounted incrementally (PendingBytes) so the
// resource-governance layer can observe pressure without walking the
// pending map, and ShedOldestPending lets it reclaim memory by dropping
// the oldest open window wholesale.
type TimeSlidingWindow struct {
	Spec WindowSpec

	mu       sync.Mutex
	pending  map[int64]*Batch
	nextEmit int64 // smallest window id not yet emitted
	maxTS    int64
	Late     int64 // dropped late tuples

	pendingBytes int64          // estimated bytes across pending batches
	shed         map[int64]bool // window ids dropped by governance; never emit
	Shed         int64          // count of shed windows (monotonic)
}

// NewTimeSlidingWindow builds the operator.
func NewTimeSlidingWindow(spec WindowSpec) (*TimeSlidingWindow, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return &TimeSlidingWindow{Spec: spec, pending: make(map[int64]*Batch), maxTS: -1 << 62}, nil
}

// Push adds one tuple and returns any windows completed by the advance of
// time to its timestamp, in window-id order.
func (t *TimeSlidingWindow) Push(el Timestamped) []Batch {
	t.mu.Lock()
	defer t.mu.Unlock()
	if el.TS < t.maxTS {
		t.Late++
		return nil
	}
	t.maxTS = el.TS
	lo, hi, ok := t.Spec.WindowsFor(el.TS)
	if ok {
		rowCost := tupleBytes(el.Row)
		for id := lo; id <= hi; id++ {
			if id < t.nextEmit || t.shed[id] {
				continue // window already emitted or shed; treat as late
			}
			b, found := t.pending[id]
			if !found {
				pt := t.Spec.PulseTime(id)
				b = &Batch{WindowID: id, Start: pt - t.Spec.RangeMS, End: pt}
				t.pending[id] = b
				t.pendingBytes += batchOverheadBytes
			}
			b.Rows = append(b.Rows, el.Row)
			t.pendingBytes += rowCost
		}
	}
	return t.completeLocked(el.TS)
}

// completeLocked emits every window whose end time has passed. Shed
// windows are skipped entirely — no empty batch is synthesized for
// them, because shedding is declared data loss, not an empty window.
func (t *TimeSlidingWindow) completeLocked(now int64) []Batch {
	var out []Batch
	for {
		if t.Spec.PulseTime(t.nextEmit) >= now {
			break
		}
		if t.shed[t.nextEmit] {
			delete(t.shed, t.nextEmit)
			t.nextEmit++
			continue
		}
		b, found := t.pending[t.nextEmit]
		if found {
			delete(t.pending, t.nextEmit)
			t.pendingBytes -= b.Bytes()
			b.ensureColumnCell() // before the first copy, so all copies share one transpose
			out = append(out, *b)
		} else {
			pt := t.Spec.PulseTime(t.nextEmit)
			out = append(out, Batch{WindowID: t.nextEmit, Start: pt - t.Spec.RangeMS, End: pt, cols: &colCell{}})
		}
		t.nextEmit++
	}
	return out
}

// Flush emits all remaining pending windows at end of stream.
func (t *TimeSlidingWindow) Flush() []Batch {
	t.mu.Lock()
	defer t.mu.Unlock()
	ids := make([]int64, 0, len(t.pending))
	for id := range t.pending {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	var out []Batch
	for _, id := range ids {
		if id < t.nextEmit {
			continue
		}
		b := t.pending[id]
		b.ensureColumnCell()
		out = append(out, *b)
	}
	t.pending = make(map[int64]*Batch)
	t.pendingBytes = 0
	t.shed = nil
	if len(ids) > 0 && ids[len(ids)-1] >= t.nextEmit {
		t.nextEmit = ids[len(ids)-1] + 1
	}
	return out
}

// PendingBytes returns the estimated size of all open windows.
func (t *TimeSlidingWindow) PendingBytes() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.pendingBytes
}

// ShedOldestPending drops the oldest open window in full and returns the
// bytes reclaimed. The shed window will never emit — not even as an
// empty batch — and tuples still arriving for it are dropped. ok is
// false when there is nothing to shed.
func (t *TimeSlidingWindow) ShedOldestPending() (freed int64, ok bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	oldest := int64(1<<62 - 1)
	for id := range t.pending {
		if id < oldest {
			oldest = id
		}
	}
	b, found := t.pending[oldest]
	if !found {
		return 0, false
	}
	delete(t.pending, oldest)
	freed = b.Bytes()
	t.pendingBytes -= freed
	if t.shed == nil {
		t.shed = make(map[int64]bool)
	}
	t.shed[oldest] = true
	t.Shed++
	return freed, true
}

// WindowState is a serializable snapshot of a TimeSlidingWindow taken
// at a consistent cut: the open (pending) batches, the emission cursor,
// and the late-tuple bookkeeping. Row slices alias the live operator's,
// clipped to their length: the operator only appends, and an append
// past a clipped slice's capacity lands in a new array, so the snapshot
// stays stable while the live operator keeps appending.
type WindowState struct {
	Spec     WindowSpec
	Pending  []Batch
	NextEmit int64
	MaxTS    int64
	Late     int64
}

// Snapshot captures the operator's current state for checkpointing.
func (t *TimeSlidingWindow) Snapshot() WindowState {
	t.mu.Lock()
	defer t.mu.Unlock()
	st := WindowState{Spec: t.Spec, NextEmit: t.nextEmit, MaxTS: t.maxTS, Late: t.Late}
	ids := make([]int64, 0, len(t.pending))
	for id := range t.pending {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	st.Pending = make([]Batch, 0, len(ids))
	for _, id := range ids {
		b := *t.pending[id]
		b.Rows = slices.Clip(b.Rows)
		st.Pending = append(st.Pending, b)
	}
	return st
}

// RestoreTimeSlidingWindow rebuilds an operator from a snapshot. The
// restored operator continues exactly where the snapshot left off:
// windows at or past NextEmit are still open, everything before it has
// already been emitted and will never re-emit.
func RestoreTimeSlidingWindow(st WindowState) (*TimeSlidingWindow, error) {
	if err := st.Spec.Validate(); err != nil {
		return nil, err
	}
	t := &TimeSlidingWindow{Spec: st.Spec, pending: make(map[int64]*Batch, len(st.Pending)), nextEmit: st.NextEmit, maxTS: st.MaxTS, Late: st.Late}
	for _, b := range st.Pending {
		if b.WindowID < st.NextEmit {
			continue
		}
		cp := b
		cp.Rows = append([]relation.Tuple(nil), b.Rows...)
		t.pending[b.WindowID] = &cp
		t.pendingBytes += cp.Bytes()
	}
	return t, nil
}

// Replay runs a finite, ordered tuple sequence through a window operator
// and returns all batches (including the flush).
func Replay(spec WindowSpec, els []Timestamped) ([]Batch, error) {
	w, err := NewTimeSlidingWindow(spec)
	if err != nil {
		return nil, err
	}
	var out []Batch
	for _, el := range els {
		out = append(out, w.Push(el)...)
	}
	out = append(out, w.Flush()...)
	return out, nil
}

// Pulse is the output clock of a continuous query: it fires at
// Start + k*Frequency, pacing when results are reported (the STARQL
// "USING PULSE WITH START..., FREQUENCY..." clause).
type Pulse struct {
	StartMS     int64
	FrequencyMS int64
}

// Validate rejects non-positive frequencies.
func (p Pulse) Validate() error {
	if p.FrequencyMS <= 0 {
		return fmt.Errorf("stream: pulse frequency must be positive")
	}
	return nil
}

// Ticks returns the pulse times in (from, to]; it is used by the replayer
// to decide which window results to surface.
func (p Pulse) Ticks(from, to int64) []int64 {
	if to <= from {
		return nil
	}
	var out []int64
	// First tick strictly after from.
	k := ceilDiv(from-p.StartMS+1, p.FrequencyMS)
	if k < 0 {
		k = 0
	}
	for {
		t := p.StartMS + k*p.FrequencyMS
		if t > to {
			break
		}
		if t > from {
			out = append(out, t)
		}
		k++
	}
	return out
}
