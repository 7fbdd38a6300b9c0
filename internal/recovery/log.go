package recovery

import "sync"

// Log is one node's bounded retained-tuple replay log: every tuple the
// node processed since its last committed checkpoint, in processing
// order. On crash the supervisor re-feeds Since(cursors) to the restored
// engine; after a committed checkpoint the node truncates the covered
// prefix.
//
// The log is a ring: when capacity pressure sheds an uncovered tuple,
// exactly-once coverage for that stream is lost (windows spanning the
// gap may be incomplete after a restore) and Covered reports it.
type Log struct {
	mu sync.Mutex
	// buf is the ring storage, grown on demand up to cap; the retained
	// tuples are buf[head], buf[head+1], ... (mod len(buf)), n of them.
	buf  []Tuple
	head int
	n    int
	cap  int
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

// at returns the i-th oldest retained tuple.
func (l *Log) at(i int) *Tuple { return &l.buf[(l.head+i)%len(l.buf)] }

// Append records one processed tuple, shedding the oldest entry when
// full. nearCap reports whether the log is now at least three-quarters
// full — the checkpoint scheduler's signal to cut now, whatever its
// cadence, before capacity pressure sheds a tuple no checkpoint covers.
func (l *Log) Append(t Tuple) (nearCap bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.n == l.cap {
		old := l.at(0)
		if old.Seq > l.dropped[old.Stream] {
			l.dropped[old.Stream] = old.Seq
		}
		*old = t
		l.head = (l.head + 1) % len(l.buf)
		return true
	}
	if l.n == len(l.buf) {
		// Grow (doubling, up to cap) and unwrap the ring.
		buf := make([]Tuple, min(max(2*len(l.buf), 16), l.cap))
		for i := 0; i < l.n; i++ {
			buf[i] = *l.at(i)
		}
		l.buf, l.head = buf, 0
	}
	*l.at(l.n) = t
	l.n++
	return l.n*4 >= l.cap*3
}

// Since returns the retained tuples strictly after the per-stream cut
// cursors (a stream absent from cursors cuts at 0), in processing order.
func (l *Log) Since(cursors map[string]int64) []Tuple {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []Tuple
	for i := 0; i < l.n; i++ {
		if t := l.at(i); t.Seq > cursors[t.Stream] {
			out = append(out, *t)
		}
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
// cursors, keeping the rest in order. Truncation is not a coverage
// loss.
func (l *Log) TruncateThrough(cursors map[string]int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	kept := 0
	for i := 0; i < l.n; i++ {
		if t := *l.at(i); t.Seq > cursors[t.Stream] {
			*l.at(kept) = t
			kept++
		}
	}
	for i := kept; i < l.n; i++ {
		*l.at(i) = Tuple{} // release the rows
	}
	l.n = kept
}

// Len returns the number of retained tuples.
func (l *Log) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.n
}
