package recovery

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/relation"
	"repro/internal/stream"
)

func sampleCheckpoint() *Checkpoint {
	return &Checkpoint{
		Node:      2,
		TakenAtMS: 12345,
		Cursors:   map[string]int64{"m": 41, "n": 7},
		EmitHWM:   map[string]int64{"q1": 2000},
		Engine: EngineState{
			Windows: []Window{{WindowState: stream.WindowState{
				Spec:     stream.WindowSpec{RangeMS: 1000, SlideMS: 500},
				NextEmit: 3,
				MaxTS:    1499,
				Log:      relation.Transpose([]relation.Tuple{{relation.Int(1), relation.Float(2.5)}}),
				Open:     []stream.OpenWindow{{ID: 3, Start: 500, End: 1500}},
			}, Seq: 41}},
			Queries: []QueryState{{
				ID:      "q1",
				Windows: []int{0},
				Pending: []PendingWindow{{End: 2000, Batches: map[int]stream.Batch{0: {End: 2000}}}},
				Budget:  1 << 20,
			}},
		},
	}
}

func TestCodecRoundtrip(t *testing.T) {
	ck := sampleCheckpoint()
	blob, err := Encode(ck)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(blob)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain(got), plain(ck)) {
		t.Fatalf("roundtrip mismatch:\n got %+v\nwant %+v", plain(got), plain(ck))
	}
}

func TestDecodeRejectsTornBlobs(t *testing.T) {
	blob, err := Encode(sampleCheckpoint())
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"truncated":   blob[:len(blob)/2],
		"tiny":        blob[:8],
		"bit-flipped": append(append([]byte(nil), blob[:20]...), append([]byte{blob[20] ^ 0xff}, blob[21:]...)...),
	}
	for name, b := range cases {
		if _, err := Decode(b); err == nil {
			t.Errorf("%s blob decoded without error", name)
		}
	}
}

func TestStoreFallsBackToPreviousCheckpoint(t *testing.T) {
	c := NewCoordinator(1, 0, nil)
	first := sampleCheckpoint()
	first.TakenAtMS = 100
	if _, err := c.Save(0, first, nil); err != nil {
		t.Fatal(err)
	}
	second := sampleCheckpoint()
	second.TakenAtMS = 200
	if _, err := c.Save(0, second, func(b []byte) []byte { return b[:len(b)/2] }); err == nil {
		t.Fatal("torn save did not report an error")
	}
	got := c.Latest(0)
	if got == nil || got.TakenAtMS != 100 {
		t.Fatalf("Latest = %+v, want fallback to TakenAtMS=100", got)
	}
}

func TestLatestNilWithoutCheckpoints(t *testing.T) {
	c := NewCoordinator(1, 0, nil)
	if ck := c.Latest(0); ck != nil {
		t.Fatalf("Latest on empty store = %+v, want nil", ck)
	}
}

// With BOTH retained blobs torn the store has nothing decodable:
// Latest must report nil (cold start from an empty cut) rather than a
// corrupt checkpoint, and the replay log — which is only truncated on a
// successful save — still covers everything from sequence zero, so a
// full-log replay reconstructs the state.
func TestStoreBothBlobsTornColdStart(t *testing.T) {
	tear := func(b []byte) []byte { return b[:len(b)/2] }
	c := NewCoordinator(1, 0, nil)
	for seq := int64(1); seq <= 4; seq++ {
		c.Log(0).Append(logTuple("m", seq))
	}
	for i := 0; i < 2; i++ {
		ck := sampleCheckpoint()
		ck.TakenAtMS = int64(100 * (i + 1))
		if _, err := c.Save(0, ck, tear); err == nil {
			t.Fatalf("torn save %d did not report an error", i+1)
		}
	}
	if ck := c.Latest(0); ck != nil {
		t.Fatalf("Latest with both blobs torn = %+v, want nil", ck)
	}
	// Empty cursors (the cold-start cut): the intact log must cover the
	// gap and replay every logged tuple.
	empty := map[string]int64{}
	if !c.Log(0).Covered(empty) {
		t.Fatal("replay log lost coverage despite no successful truncating save")
	}
	if got := len(c.Log(0).Since(empty)); got != 4 {
		t.Fatalf("full-log replay returned %d tuples, want 4", got)
	}
}

func logTuple(stream string, seq int64) Tuple {
	return Tuple{Stream: stream, Seq: seq, TS: seq * 10, Row: relation.Tuple{relation.Int(seq)}}
}

func TestLogSinceAndTruncate(t *testing.T) {
	l := NewLog(16)
	for seq := int64(1); seq <= 6; seq++ {
		l.Append(logTuple("m", seq))
	}
	got := l.Since(map[string]int64{"m": 4})
	if len(got) != 2 || got[0].Seq != 5 || got[1].Seq != 6 {
		t.Fatalf("Since = %+v, want seqs 5,6", got)
	}
	l.TruncateThrough(map[string]int64{"m": 5})
	if l.Len() != 1 {
		t.Fatalf("Len after truncate = %d, want 1", l.Len())
	}
	if !l.Covered(map[string]int64{}) {
		t.Fatal("truncation must not count as coverage loss")
	}
}

// TestLogRingWraps drives Since, Covered and TruncateThrough across
// ring wraps: shedding and truncation move the head, and every read
// still comes back in processing order.
func TestLogRingWraps(t *testing.T) {
	seqs := func(ts []Tuple) []int64 {
		var out []int64
		for _, x := range ts {
			out = append(out, x.Seq)
		}
		return out
	}
	l := NewLog(20) // grows 16 -> 20, then wraps
	for seq := int64(1); seq <= 26; seq++ {
		l.Append(logTuple("m", seq))
		l.Append(logTuple("n", seq))
	}
	// 52 appended, 20 kept: m and n 17..26 interleaved; 16 of each shed.
	if got := l.Len(); got != 20 {
		t.Fatalf("Len = %d, want 20", got)
	}
	if got := seqs(l.Since(map[string]int64{"m": 24, "n": 25})); !reflect.DeepEqual(got, []int64{25, 26, 26}) {
		t.Fatalf("Since = %v, want [25 26 26]", got)
	}
	if l.Covered(map[string]int64{"m": 16, "n": 15}) || !l.Covered(map[string]int64{"m": 16, "n": 16}) {
		t.Fatal("coverage must hold exactly from the last shed seq 16 of each stream")
	}
	l.TruncateThrough(map[string]int64{"m": 20, "n": 22})
	if got := seqs(l.Since(nil)); !reflect.DeepEqual(got, []int64{21, 22, 23, 23, 24, 24, 25, 25, 26, 26}) {
		t.Fatalf("after truncation Since = %v", got)
	}
	// 14 more wrap the ring past the moved head and shed the 4 oldest:
	// m21, m22, m23, n23.
	for seq := int64(27); seq <= 40; seq++ {
		l.Append(logTuple("m", seq))
	}
	got := seqs(l.Since(map[string]int64{"n": 99}))
	var want []int64
	for seq := int64(24); seq <= 40; seq++ {
		want = append(want, seq)
	}
	if !reflect.DeepEqual(got, want) || l.Len() != 20 {
		t.Fatalf("after the second wrap Since(m) = %v (Len %d), want %v (Len 20)", got, l.Len(), want)
	}
	if l.Covered(map[string]int64{"m": 22, "n": 23}) || !l.Covered(map[string]int64{"m": 23, "n": 23}) {
		t.Fatal("coverage must hold exactly from m23 after the second wrap")
	}
}

func TestLogCapacityShedLosesCoverage(t *testing.T) {
	l := NewLog(4)
	for seq := int64(1); seq <= 6; seq++ {
		l.Append(logTuple("m", seq))
	}
	// Seqs 1 and 2 were shed by capacity: a cut at 1 is no longer covered,
	// a cut at 2 (or later) is.
	if l.Covered(map[string]int64{"m": 1}) {
		t.Fatal("cut at 1 reported covered after shedding seq 2")
	}
	if !l.Covered(map[string]int64{"m": 2}) {
		t.Fatal("cut at 2 reported uncovered")
	}
}

// TestLogNearCap pins the near-capacity report of Append: false below
// three-quarters full, true from there on, false again once a
// checkpoint truncation frees the covered prefix.
func TestLogNearCap(t *testing.T) {
	l := NewLog(8)
	for seq := int64(1); seq <= 5; seq++ {
		if l.Append(logTuple("m", seq)) {
			t.Fatalf("near capacity at %d/8, want false below three-quarters", seq)
		}
	}
	if !l.Append(logTuple("m", 6)) {
		t.Fatal("near capacity at 6/8 = false, want true")
	}
	l.TruncateThrough(map[string]int64{"m": 5})
	if l.Append(logTuple("m", 7)) {
		t.Fatal("near capacity at 2/8 after truncation = true, want false")
	}
}

func TestGateDeduplicatesBelowHWM(t *testing.T) {
	g := NewGate(nil, nil)
	var ends []int64
	sink := func(_ string, end int64, _ relation.Schema, _ *relation.ColBatch) {
		ends = append(ends, end)
	}
	wrapped := g.Wrap("q", sink, nil)
	wrapped("q", 0, relation.Schema{}, nil) // windowEnd 0 is a legitimate first window
	wrapped("q", 1000, relation.Schema{}, nil)
	wrapped("q", 1000, relation.Schema{}, nil) // duplicate after replay
	wrapped("q", 500, relation.Schema{}, nil)  // below the mark
	wrapped("q", 2000, relation.Schema{}, nil)
	want := []int64{0, 1000, 2000}
	if !reflect.DeepEqual(ends, want) {
		t.Fatalf("delivered ends = %v, want %v", ends, want)
	}
	if hwm, ok := g.HWM("q"); !ok || hwm != 2000 {
		t.Fatalf("HWM = %d,%v want 2000,true", hwm, ok)
	}
}

func TestGatePanickingSinkDoesNotWedge(t *testing.T) {
	g := NewGate(nil, nil)
	calls := 0
	sink := func(_ string, end int64, _ relation.Schema, _ *relation.ColBatch) {
		calls++
		if calls == 1 {
			panic("sink crash")
		}
	}
	wrapped := g.Wrap("q", sink, nil)
	func() {
		defer func() { recover() }()
		wrapped("q", 1000, relation.Schema{}, nil)
	}()
	// A panic inside the sink means delivery did not complete: the mark
	// must NOT advance (the replayed window is re-delivered), and the
	// gate's per-query mutex must not stay locked.
	wrapped("q", 1000, relation.Schema{}, nil)
	if calls != 2 {
		t.Fatalf("window 1000 delivered %d times after a failed attempt, want 2", calls)
	}
	if hwm, ok := g.HWM("q"); !ok || hwm != 1000 {
		t.Fatalf("HWM = %d,%v want 1000,true", hwm, ok)
	}
	wrapped("q", 2000, relation.Schema{}, nil)
	if calls != 3 {
		t.Fatalf("gate wedged after sink panic: calls = %d", calls)
	}
}

func TestGateConcurrentQueriesIndependent(t *testing.T) {
	g := NewGate(nil, nil)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		id := string(rune('a' + i))
		sink := g.Wrap(id, func(string, int64, relation.Schema, *relation.ColBatch) {}, nil)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for end := int64(0); end < 100; end++ {
				sink(id, end*100, relation.Schema{}, nil)
			}
		}()
	}
	wg.Wait()
	for i := 0; i < 8; i++ {
		id := string(rune('a' + i))
		if hwm, ok := g.HWM(id); !ok || hwm != 9900 {
			t.Fatalf("HWM(%s) = %d,%v want 9900,true", id, hwm, ok)
		}
	}
}

func TestMergeFeedsOrdersAndDedups(t *testing.T) {
	a := []Tuple{logTuple("m", 3), logTuple("m", 1), logTuple("n", 2)}
	b := []Tuple{logTuple("m", 3), logTuple("m", 2), {Stream: "m", Seq: 0}, {Stream: "m", Seq: 0}}
	got := MergeFeeds(a, b)
	var seqs []int64
	for _, tp := range got {
		if tp.Stream == "m" {
			seqs = append(seqs, tp.Seq)
		}
	}
	// Unsequenced (seq 0) tuples are never deduplicated.
	want := []int64{0, 0, 1, 2, 3}
	if !reflect.DeepEqual(seqs, want) {
		t.Fatalf("merged m-seqs = %v, want %v", seqs, want)
	}
}
