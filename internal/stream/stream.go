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
	"sync"

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

// Batch is the contents of one window instance: the paper's
// timeSlidingWindow operator "groups tuples that belong to the same time
// window and associates them with a unique window id".
type Batch struct {
	WindowID int64
	Start    int64 // exclusive window start (PulseTime - Range)
	End      int64 // inclusive window end (PulseTime)
	Rows     []relation.Tuple

	// cols is the window operator's column-log view of Rows (nil while
	// the log is ragged; see relation.ColLog) and bytes its Bytes, both
	// set at emission, so every copy of an emitted batch shares one
	// columnar form and never re-walks its rows. The checkpoint codec
	// writes only the exported fields; a batch built from them (decoded,
	// or by hand) has neither.
	cols  *relation.ColBatch
	bytes int64
}

// Columns returns the batch in columnar form: the operator's column-log
// view for an emitted batch, a private transpose of the rows otherwise.
func (b Batch) Columns() *relation.ColBatch {
	if b.cols != nil {
		return b.cols
	}
	return relation.Transpose(b.Rows)
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
// model used for window budgets: the flat row model, whatever layout a
// reader takes.
func (b Batch) Bytes() int64 {
	if b.bytes != 0 {
		return b.bytes
	}
	n := int64(batchOverheadBytes)
	for _, row := range b.Rows {
		n += tupleBytes(row)
	}
	return n
}

// TimeSlidingWindow consumes an ordered stream of timestamped tuples and
// emits completed window batches. Tuples that fall into several
// overlapping windows (Range > Slide) belong to each.
//
// The operator stages every tuple once. Timestamps are non-decreasing
// and a window is emitted as soon as a tuple arrives past its pulse
// time, so every open window ends at the newest tuple: each one is a
// suffix of the oldest. The operator therefore keeps one append-only
// log of the open windows' rows, in row and in column layout, and an
// open window is just the log position of its first row. An emitted
// window is a [start, tail) view of that log, and a snapshot's log one
// from the oldest open window's start, each capped to its length; the
// log never writes where a view can see (see relation.ColLog), so views
// stay valid after the operator moves on.
//
// The operator assumes non-decreasing timestamps; late tuples are counted
// and dropped (the stream generator never produces them, but failure
// injection tests do).
//
// Open-window bytes are accounted incrementally (PendingBytes) so the
// resource-governance layer can observe pressure without walking the
// open windows, and ShedOldestPending lets it reclaim memory by dropping
// the oldest open window wholesale. The byte model counts a row once
// per open window that holds it, as if each window owned a copy.
type TimeSlidingWindow struct {
	Spec WindowSpec

	mu       sync.Mutex
	log      []relation.Tuple // rows of the open windows; log[0] is row base
	cols     relation.ColLog  // the same rows in columns
	base     int64            // absolute index of log[0]
	open     []openWindow     // open windows in id order, starts ascending
	rowBytes int64            // Σ tupleBytes of every row ever logged
	nextEmit int64            // smallest window id not yet emitted
	maxTS    int64
	Late     int64 // dropped late tuples

	pendingBytes int64          // estimated bytes across open windows
	shed         map[int64]bool // window ids dropped by governance; never emit
	Shed         int64          // count of shed windows (monotonic)
}

// openWindow is one open window: its id and bounds, the absolute log
// index of its first row, and the operator's rowBytes at that row, so
// its row bytes are rowBytes minus bytesAt.
type openWindow struct {
	id, startMS, endMS int64
	start, bytesAt     int64
}

// NewTimeSlidingWindow builds the operator.
func NewTimeSlidingWindow(spec WindowSpec) (*TimeSlidingWindow, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return &TimeSlidingWindow{Spec: spec, maxTS: -1 << 62}, nil
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
	// Windows the tuple closes are emitted before it is logged, so their
	// views end before it.
	out := t.completeLocked(el.TS)
	lo, hi, ok := t.Spec.WindowsFor(el.TS)
	if !ok {
		return out
	}
	tail := t.base + int64(len(t.log))
	for id := lo; id <= hi; id++ {
		if id < t.nextEmit || t.shed[id] || len(t.open) > 0 && id <= t.open[len(t.open)-1].id {
			continue // emitted, shed, or already open
		}
		pt := t.Spec.PulseTime(id)
		t.open = append(t.open, openWindow{id: id, startMS: pt - t.Spec.RangeMS, endMS: pt, start: tail, bytesAt: t.rowBytes})
		t.pendingBytes += batchOverheadBytes
	}
	if len(t.open) == 0 {
		return out // every window of the tuple was emitted or shed
	}
	// Every open window holds the tuple: the ones opened before it end
	// at or after its timestamp (the rest were just emitted) and began
	// before it, so the log gets it once.
	cost := tupleBytes(el.Row)
	t.log = append(relation.GrowLog(t.log), el.Row)
	t.cols.Append(el.Row)
	t.rowBytes += cost
	t.pendingBytes += cost * int64(len(t.open))
	return out
}

// emitLocked turns open window w into a batch over log rows [w.start,
// tail), carrying the column-log view and the window's byte estimate,
// so neither a transpose nor a row walk is needed later.
func (t *TimeSlidingWindow) emitLocked(w openWindow) Batch {
	lo, hi := int(w.start-t.base), len(t.log)
	b := Batch{WindowID: w.id, Start: w.startMS, End: w.endMS, cols: t.cols.View(lo, hi), bytes: batchOverheadBytes + t.rowBytes - w.bytesAt}
	t.pendingBytes -= b.bytes
	if hi > lo {
		b.Rows = t.log[lo:hi:hi]
	}
	return b
}

// compactLocked drops the log prefix no open window holds. Reslicing
// only: emitted views may still read it, and its memory goes when the
// log next grows into a new array.
func (t *TimeSlidingWindow) compactLocked() {
	keep := t.base + int64(len(t.log))
	if len(t.open) > 0 {
		keep = t.open[0].start
	}
	if k := int(keep - t.base); k > 0 {
		t.log = t.log[k:]
		t.cols.DropPrefix(k)
		t.base = keep
	}
}

// noColumns is the columnar form every empty window shares.
var noColumns = &relation.ColBatch{}

// completeLocked emits every window whose end time has passed. Shed
// windows are skipped entirely — no empty batch is synthesized for
// them, because shedding is declared data loss, not an empty window.
func (t *TimeSlidingWindow) completeLocked(now int64) []Batch {
	var out []Batch
	for t.Spec.PulseTime(t.nextEmit) < now {
		switch {
		case t.shed[t.nextEmit]:
			delete(t.shed, t.nextEmit)
		case len(t.open) > 0 && t.open[0].id == t.nextEmit:
			out = append(out, t.emitLocked(t.open[0]))
			t.open = t.open[1:]
		default:
			pt := t.Spec.PulseTime(t.nextEmit)
			out = append(out, Batch{WindowID: t.nextEmit, Start: pt - t.Spec.RangeMS, End: pt, cols: noColumns})
		}
		t.nextEmit++
	}
	if out != nil {
		t.compactLocked()
	}
	return out
}

// Flush emits all remaining open windows at end of stream.
func (t *TimeSlidingWindow) Flush() []Batch {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []Batch
	for _, w := range t.open {
		out = append(out, t.emitLocked(w))
	}
	if n := len(t.open); n > 0 {
		t.nextEmit = t.open[n-1].id + 1
	}
	t.base += int64(len(t.log))
	t.log, t.cols, t.open = nil, relation.ColLog{}, nil
	t.pendingBytes = 0
	t.shed = nil
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
	if len(t.open) == 0 {
		return 0, false
	}
	w := t.open[0]
	t.open = t.open[1:]
	freed = batchOverheadBytes + t.rowBytes - w.bytesAt
	t.pendingBytes -= freed
	if t.shed == nil {
		t.shed = make(map[int64]bool)
	}
	t.shed[w.id] = true
	t.Shed++
	t.compactLocked()
	return freed, true
}

// WindowState is a serializable snapshot of a TimeSlidingWindow taken
// at a consistent cut: the emission cursor, the late-tuple bookkeeping
// and the open windows as the operator holds them, one row log and
// where in it each open window starts. Rows is the log from the oldest
// open window's first row; open window i holds Rows[Open[i].Offset:].
// Rows is a view of the live operator's log, capped to its length; the
// log never writes where a view can see, so the snapshot stays stable
// while the live operator keeps appending.
type WindowState struct {
	Spec     WindowSpec
	NextEmit int64
	MaxTS    int64
	Late     int64
	Rows     []relation.Tuple
	Open     []OpenWindow
}

// OpenWindow is one open window of a snapshot: its id and bounds, and
// the index in WindowState.Rows of its first row.
type OpenWindow struct {
	ID, Start, End int64
	Offset         int
}

// Snapshot captures the operator's current state for checkpointing.
func (t *TimeSlidingWindow) Snapshot() WindowState {
	t.mu.Lock()
	defer t.mu.Unlock()
	st := WindowState{Spec: t.Spec, NextEmit: t.nextEmit, MaxTS: t.maxTS, Late: t.Late}
	if len(t.open) == 0 {
		return st
	}
	first, hi := t.open[0].start, len(t.log)
	if lo := int(first - t.base); hi > lo {
		st.Rows = t.log[lo:hi:hi]
	}
	st.Open = make([]OpenWindow, len(t.open))
	for i, w := range t.open {
		st.Open[i] = OpenWindow{ID: w.id, Start: w.startMS, End: w.endMS, Offset: int(w.start - first)}
	}
	return st
}

// Check reports whether the snapshot's open windows could be an
// operator's: ids increasing, offsets never decreasing and none past
// the log's end.
func (st *WindowState) Check() error {
	for i, w := range st.Open {
		switch {
		case w.Offset < 0 || w.Offset > len(st.Rows):
			return fmt.Errorf("stream: snapshot window %d starts at row %d of %d", w.ID, w.Offset, len(st.Rows))
		case i > 0 && w.ID <= st.Open[i-1].ID:
			return fmt.Errorf("stream: snapshot window %d follows window %d", w.ID, st.Open[i-1].ID)
		case i > 0 && w.Offset < st.Open[i-1].Offset:
			return fmt.Errorf("stream: snapshot window %d starts before window %d", w.ID, st.Open[i-1].ID)
		}
	}
	return nil
}

// RestoreTimeSlidingWindow rebuilds an operator from a snapshot. The
// restored operator continues exactly where the snapshot left off:
// windows at or past NextEmit are still open, everything before it has
// already been emitted and will never re-emit, and a window shed before
// the snapshot stays shed. The operator adopts a copy of the snapshot's
// log from the first window still open; a snapshot no operator could
// have taken (see Check) is rejected.
func RestoreTimeSlidingWindow(st WindowState) (*TimeSlidingWindow, error) {
	if err := st.Spec.Validate(); err != nil {
		return nil, err
	}
	if err := st.Check(); err != nil {
		return nil, err
	}
	t := &TimeSlidingWindow{Spec: st.Spec, nextEmit: st.NextEmit, maxTS: st.MaxTS, Late: st.Late}
	open := st.Open
	for len(open) > 0 && open[0].ID < st.NextEmit {
		open = open[1:]
	}
	// A window that holds the newest tuple but is not open was shed (the
	// tuple would be in it otherwise): it stays shed, so a restored
	// operator never re-opens, and later emits, a window governance
	// dropped.
	if lo, hi, ok := st.Spec.WindowsFor(st.MaxTS); ok {
		for id := max(lo, st.NextEmit); id <= hi; id++ {
			if !slices.ContainsFunc(open, func(w OpenWindow) bool { return w.ID == id }) {
				if t.shed == nil {
					t.shed = make(map[int64]bool)
				}
				t.shed[id] = true
			}
		}
	}
	if len(open) == 0 {
		return t, nil
	}
	rows := st.Rows[open[0].Offset:]
	t.log = make([]relation.Tuple, len(rows), max(2*len(rows), 8))
	copy(t.log, rows)
	// cum[i] is the byte estimate of log rows [0, i).
	cum := make([]int64, len(rows)+1)
	for i, row := range rows {
		t.cols.Append(row)
		cum[i+1] = cum[i] + tupleBytes(row)
	}
	t.rowBytes = cum[len(rows)]
	for _, w := range open {
		start := w.Offset - open[0].Offset
		t.open = append(t.open, openWindow{id: w.ID, startMS: w.Start, endMS: w.End, start: int64(start), bytesAt: cum[start]})
		t.pendingBytes += batchOverheadBytes + t.rowBytes - cum[start]
	}
	return t, nil
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
