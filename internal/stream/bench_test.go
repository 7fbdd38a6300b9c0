package stream

import (
	"testing"

	"repro/internal/relation"
)

// BenchmarkTimeSlidingWindowPush pushes the Figure 1 load through one
// window operator: a 10 s range sliding every 1 s, 320 sensors reporting
// at 2 Hz (640 tuples/s in the Siemens msmt_a layout). One op is one
// Push; B/op and allocs/op are the staging cost per tuple, emitted
// windows included.
func BenchmarkTimeSlidingWindowPush(b *testing.B) {
	const sensors, perSecond = 320, 640
	w, err := NewTimeSlidingWindow(WindowSpec{RangeMS: 10000, SlideMS: 1000})
	if err != nil {
		b.Fatal(err)
	}
	rows := make([]relation.Tuple, perSecond)
	for i := range rows {
		rows[i] = relation.Tuple{relation.Int(int64(i % sensors)), relation.Time(int64(i) * 1000 / perSecond),
			relation.Float(float64(i%97) / 3), relation.Int(int64(i % 2))}
	}
	b.ReportAllocs()
	b.ResetTimer()
	windows := 0
	for i := 0; i < b.N; i++ {
		ts := int64(i) * 1000 / perSecond
		windows += len(w.Push(Timestamped{TS: ts, Row: rows[i%perSecond]}))
	}
	b.ReportMetric(float64(windows)/float64(b.N), "windows/op")
}
