package stream_test

import (
	"sort"

	"repro/internal/relation"
	"repro/internal/stream"
)

// refWindow is the reference time-sliding window: it copies every tuple
// into each open window that holds it and keeps one row slice per
// window, so a window's contents, bounds and byte estimate follow the
// window semantics directly. The production operator stages each tuple
// once in a shared log; the differential in window_diff_test.go runs
// both over the same input and requires the same output.
type refWindow struct {
	spec     stream.WindowSpec
	pending  map[int64]*stream.Batch
	nextEmit int64
	maxTS    int64
	late     int64
	bytes    int64
	shed     map[int64]bool
	shedN    int64
}

func newRefWindow(spec stream.WindowSpec) *refWindow {
	return &refWindow{spec: spec, pending: map[int64]*stream.Batch{}, maxTS: -1 << 62}
}

func (t *refWindow) push(el stream.Timestamped) []stream.Batch {
	if el.TS < t.maxTS {
		t.late++
		return nil
	}
	t.maxTS = el.TS
	lo, hi, ok := t.spec.WindowsFor(el.TS)
	if ok {
		for id := lo; id <= hi; id++ {
			if id < t.nextEmit || t.shed[id] {
				continue
			}
			b, found := t.pending[id]
			if !found {
				pt := t.spec.PulseTime(id)
				b = &stream.Batch{WindowID: id, Start: pt - t.spec.RangeMS, End: pt}
				t.pending[id] = b
				t.bytes += b.Bytes()
			}
			b.Rows = append(b.Rows, el.Row)
			t.bytes += stream.Batch{Rows: []relation.Tuple{el.Row}}.Bytes() - stream.Batch{}.Bytes()
		}
	}
	var out []stream.Batch
	for t.spec.PulseTime(t.nextEmit) < el.TS {
		if t.shed[t.nextEmit] {
			delete(t.shed, t.nextEmit)
			t.nextEmit++
			continue
		}
		if b, found := t.pending[t.nextEmit]; found {
			delete(t.pending, t.nextEmit)
			t.bytes -= b.Bytes()
			out = append(out, *b)
		} else {
			pt := t.spec.PulseTime(t.nextEmit)
			out = append(out, stream.Batch{WindowID: t.nextEmit, Start: pt - t.spec.RangeMS, End: pt})
		}
		t.nextEmit++
	}
	return out
}

func (t *refWindow) ids() []int64 {
	ids := make([]int64, 0, len(t.pending))
	for id := range t.pending {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

func (t *refWindow) flush() []stream.Batch {
	ids := t.ids()
	var out []stream.Batch
	for _, id := range ids {
		if id >= t.nextEmit {
			out = append(out, *t.pending[id])
		}
	}
	t.pending = map[int64]*stream.Batch{}
	t.bytes = 0
	t.shed = nil
	if len(ids) > 0 && ids[len(ids)-1] >= t.nextEmit {
		t.nextEmit = ids[len(ids)-1] + 1
	}
	return out
}

func (t *refWindow) shedOldest() (int64, bool) {
	ids := t.ids()
	if len(ids) == 0 {
		return 0, false
	}
	b := t.pending[ids[0]]
	delete(t.pending, ids[0])
	freed := b.Bytes()
	t.bytes -= freed
	if t.shed == nil {
		t.shed = map[int64]bool{}
	}
	t.shed[ids[0]] = true
	t.shedN++
	return freed, true
}

// snapshot converts the per-window copies to a snapshot's log form:
// the oldest open window's rows, and each window's offset in them (a
// newer open window is a suffix of every older one).
func (t *refWindow) snapshot() stream.WindowState {
	st := stream.WindowState{Spec: t.spec, NextEmit: t.nextEmit, MaxTS: t.maxTS, Late: t.late}
	for i, id := range t.ids() {
		b := t.pending[id]
		if i == 0 {
			st.Rows = append([]relation.Tuple(nil), b.Rows...)
		}
		st.Open = append(st.Open, stream.OpenWindow{ID: id, Start: b.Start, End: b.End, Offset: len(st.Rows) - len(b.Rows)})
	}
	return st
}

func restoreRefWindow(st stream.WindowState) *refWindow {
	t := &refWindow{spec: st.Spec, pending: map[int64]*stream.Batch{}, nextEmit: st.NextEmit, maxTS: st.MaxTS, late: st.Late}
	for _, w := range st.Open {
		if w.ID < st.NextEmit {
			continue
		}
		b := &stream.Batch{WindowID: w.ID, Start: w.Start, End: w.End, Rows: append([]relation.Tuple(nil), st.Rows[w.Offset:]...)}
		t.pending[w.ID] = b
		t.bytes += b.Bytes()
	}
	// A window that would hold the newest tuple but is not pending was
	// shed; it stays shed.
	if lo, hi, ok := st.Spec.WindowsFor(st.MaxTS); ok {
		for id := max(lo, st.NextEmit); id <= hi; id++ {
			if t.pending[id] == nil {
				if t.shed == nil {
					t.shed = map[int64]bool{}
				}
				t.shed[id] = true
			}
		}
	}
	return t
}
