package recovery

import "sync"

// Log is one node's bounded retained-tuple replay log: every tuple the
// node processed since its last committed checkpoint, in processing
// order. On crash the supervisor re-feeds Since(cursors) to the restored
// engine; after a committed checkpoint the node truncates the covered
// prefix.
//
// The log is a ring: when capacity pressure sheds an uncovered tuple,
// exactly-once coverage for that stream is lost (the restore degrades to
// salvage-only for the gap) and Covered reports it.
type Log struct {
	mu  sync.Mutex
	buf []Tuple
	cap int
	// dropped tracks, per stream, the highest sequence number shed by
	// capacity pressure (not by checkpoint truncation). Coverage holds
	// for a cut iff every dropped seq is at or below the cut.
	dropped map[string]int64
}

// DefaultLogCap bounds each node's replay log when Options.ReplayLogCap
// is left zero.
const DefaultLogCap = 8192

// NewLog builds a log with the given capacity (entries).
func NewLog(capacity int) *Log {
	if capacity <= 0 {
		capacity = DefaultLogCap
	}
	return &Log{cap: capacity, dropped: make(map[string]int64)}
}

// Append records one processed tuple, shedding the oldest entry when
// full. nearCap reports whether the log is now at least three-quarters
// full — the checkpoint scheduler's signal to cut now, whatever its
// cadence, before capacity pressure sheds a tuple no checkpoint covers.
func (l *Log) Append(t Tuple) (nearCap bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.buf) >= l.cap {
		old := l.buf[0]
		if old.Seq > l.dropped[old.Stream] {
			l.dropped[old.Stream] = old.Seq
		}
		l.buf = append(l.buf[:0], l.buf[1:]...)
	}
	l.buf = append(l.buf, t)
	return len(l.buf)*4 >= l.cap*3
}

// Since returns the retained tuples strictly after the per-stream cut
// cursors (a stream absent from cursors cuts at 0), in processing order.
func (l *Log) Since(cursors map[string]int64) []Tuple {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []Tuple
	for _, t := range l.buf {
		if t.Seq <= cursors[t.Stream] {
			continue
		}
		out = append(out, t)
	}
	return out
}

// Covered reports whether the log still holds every tuple after the cut:
// false when capacity pressure shed an uncovered tuple, which means a
// restore from this cut cannot guarantee exactly-once for the gap.
func (l *Log) Covered(cursors map[string]int64) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	for s, seq := range l.dropped {
		if seq > cursors[s] {
			return false
		}
	}
	return true
}

// TruncateThrough drops entries covered by a committed checkpoint's
// cursors. Truncation is not a coverage loss.
func (l *Log) TruncateThrough(cursors map[string]int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	kept := l.buf[:0]
	for _, t := range l.buf {
		if t.Seq <= cursors[t.Stream] {
			continue
		}
		kept = append(kept, t)
	}
	l.buf = kept
}

// Len returns the number of retained tuples.
func (l *Log) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.buf)
}
