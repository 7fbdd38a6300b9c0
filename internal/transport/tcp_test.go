package transport

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/relation"
	"repro/internal/telemetry"
)

// The deterministic fault injector must satisfy the transport's hook
// interface.
var _ NetFaultInjector = (*faults.Injector)(nil)

// collectHandler records delivered tuples and flush barriers per node.
type collectHandler struct {
	mu      sync.Mutex
	msgs    map[int][]Msg
	flushes map[int]int
	// beforeFlush, when set, runs before each barrier completes, with
	// the node's 1-based flush count.
	beforeFlush func(n int)
}

func newCollectHandler() *collectHandler {
	return &collectHandler{msgs: make(map[int][]Msg), flushes: make(map[int]int)}
}

func (h *collectHandler) HandleTuple(_ context.Context, node int, m Msg) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.msgs[node] = append(h.msgs[node], m)
	return nil
}

func (h *collectHandler) HandleFlush(_ context.Context, node int) error {
	h.mu.Lock()
	h.flushes[node]++
	n := h.flushes[node]
	h.mu.Unlock()
	if h.beforeFlush != nil {
		h.beforeFlush(n)
	}
	return nil
}

func (h *collectHandler) delivered(node int) []Msg {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]Msg(nil), h.msgs[node]...)
}

func testMsg(stream string, i int) Msg {
	return Msg{
		Stream: stream,
		TS:     int64(i) * 100,
		Seq:    int64(i) + 1,
		Row:    relation.Tuple{relation.Int(int64(i)), relation.Float(float64(i) / 2)},
	}
}

// checkDelivered asserts node received exactly msgs 0..n-1 in order,
// each exactly once.
func checkDelivered(t *testing.T, h *collectHandler, node, n int, stream string) {
	t.Helper()
	got := h.delivered(node)
	if len(got) != n {
		t.Fatalf("node %d delivered %d msgs, want %d", node, len(got), n)
	}
	for i, m := range got {
		want := testMsg(stream, i)
		if m.Stream != want.Stream || m.TS != want.TS || m.Seq != want.Seq || len(m.Row) != len(want.Row) {
			t.Fatalf("node %d msg %d = %+v, want %+v", node, i, m, want)
		}
	}
}

func chaosTuning() Tuning {
	return Tuning{
		HeartbeatEvery:   5 * time.Millisecond,
		SuspectAfter:     -1, // chaos runs reconnect forever; no failover
		DialTimeout:      50 * time.Millisecond,
		ReconnectBackoff: time.Millisecond,
	}
}

func newTestTCP(t *testing.T, cfg Config) *TCP {
	t.Helper()
	tr, err := NewTCP(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tr.Close() })
	return tr
}

func TestTCPDeliversInOrder(t *testing.T) {
	h := newCollectHandler()
	tr := newTestTCP(t, Config{Nodes: 2, Handler: h})
	ctx := context.Background()
	for i := 0; i < 50; i++ {
		for node := 0; node < 2; node++ {
			if err := tr.Send(ctx, node, testMsg(fmt.Sprintf("s%d", node), i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	for node := 0; node < 2; node++ {
		if err := tr.Flush(ctx, node); err != nil {
			t.Fatalf("flush node %d: %v", node, err)
		}
	}
	// The flush barrier ran behind every tuple on each link, so delivery
	// is complete the moment it returns.
	for node := 0; node < 2; node++ {
		checkDelivered(t, h, node, 50, fmt.Sprintf("s%d", node))
		h.mu.Lock()
		flushes := h.flushes[node]
		h.mu.Unlock()
		if flushes != 1 {
			t.Errorf("node %d ran %d flushes, want 1", node, flushes)
		}
	}
}

// TestTCPSlowReceiverIsNotReset is the back-pressure contract under
// the default tuning. A live receiver that takes 2 ms per tuple holds
// the send window full, and Send blocks; one that blocks on its first
// tuple for 1.5 s (below SuspectAfter) is silent meanwhile. Neither may
// cost a reset, a retransmission or a failed flush — every frame goes
// on the wire exactly once.
func TestTCPSlowReceiverIsNotReset(t *testing.T) {
	for _, tc := range []struct {
		name        string
		n           int
		first, each time.Duration
	}{
		{"slow", 1500, 2 * time.Millisecond, 2 * time.Millisecond},
		{"stall", 100, 1500 * time.Millisecond, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := &slowHandler{collectHandler: newCollectHandler(), first: tc.first, each: tc.each}
			reg := telemetry.NewRegistry()
			tr := newTestTCP(t, Config{Nodes: 1, Handler: h, Metrics: reg})
			ctx := context.Background()
			for i := 0; i < tc.n; i++ {
				if err := tr.Send(ctx, 0, testMsg("s0", i)); err != nil {
					t.Fatal(err)
				}
			}
			if err := tr.Flush(ctx, 0); err != nil {
				t.Fatalf("flush: %v", err)
			}
			checkDelivered(t, h.collectHandler, 0, tc.n, "s0")
			requireCounters(t, reg, map[string]int64{
				"transport.reconnects":  0,
				"transport.retransmits": 0,
				"transport.suspects":    0,
				"transport.frames_sent": int64(tc.n) + 1,
			})
		})
	}
}

// slowHandler sleeps before each delivered tuple: first before the
// first one, each before every later one.
type slowHandler struct {
	*collectHandler
	first, each time.Duration
	seen        int
}

func (h *slowHandler) HandleTuple(ctx context.Context, node int, m Msg) error {
	d := h.each
	if h.seen == 0 {
		d = h.first
	}
	h.seen++ // tuples of one session are delivered one at a time
	time.Sleep(d)
	return h.collectHandler.HandleTuple(ctx, node, m)
}

func requireCounters(t *testing.T, reg *telemetry.Registry, want map[string]int64) {
	t.Helper()
	for name, v := range want {
		if got := reg.Counter(name).Value(); got != v {
			t.Errorf("%s = %d, want %d", name, got, v)
		}
	}
}

// TestTCPSessionResumeDedupes resets the connection right after a
// flush frame is written, and later right after a data frame. Each
// resumed session retransmits what the receiver had not acknowledged:
// the replayed flush is answered from the cached result (each barrier
// runs once), and every tuple is delivered exactly once, in order.
func TestTCPSessionResumeDedupes(t *testing.T) {
	h := newCollectHandler()
	rec := telemetry.NewRecorder(0, 64)
	// The second barrier finishes only once the sender has dropped its
	// connection, so its flushAck is lost and the resumed session
	// must replay the flush frame.
	h.beforeFlush = func(n int) {
		if n != 2 {
			return
		}
		deadline := time.Now().Add(10 * time.Second)
		for !hasEvent(rec, telemetry.EvLinkDown) && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
	}
	// Frames 1..5 are tuples and frame 6 the first flush; frame 7, the
	// second flush, is reset and replayed as frame 8, so frame 12 is the
	// 4th tuple after it.
	inj := faults.New(1).ResetLinkAtFrame(0, 7).ResetLinkAtFrame(0, 12)
	tun := chaosTuning()
	// No heartbeat acks: at each reset the sender has read every reply,
	// so closing sends a FIN and the receiver reads the reset frame.
	tun.HeartbeatEvery = time.Hour
	reg := telemetry.NewRegistry()
	tr := newTestTCP(t, Config{Nodes: 1, Handler: h, Faults: inj, Tuning: tun, Metrics: reg, Recorder: rec})
	ctx := context.Background()
	for i := 0; i < 25; i++ {
		if i == 5 {
			for f := 1; f <= 2; f++ {
				if err := tr.Flush(ctx, 0); err != nil {
					t.Fatalf("flush %d: %v", f, err)
				}
			}
		}
		if err := tr.Send(ctx, 0, testMsg("s0", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Flush(ctx, 0); err != nil {
		t.Fatal(err)
	}
	checkDelivered(t, h, 0, 25, "s0")
	h.mu.Lock()
	flushes := h.flushes[0]
	h.mu.Unlock()
	if flushes != 3 {
		t.Errorf("the flush barrier ran %d times for 3 flushes (a replay must be answered from the cache)", flushes)
	}
	if got := inj.Injected(faults.KindNetReset); got != 2 {
		t.Errorf("resets injected = %d, want 2", got)
	}
	if got := reg.Counter("transport.reconnects").Value(); got != 2 {
		t.Errorf("reconnects = %d, want 2", got)
	}
	if reg.Counter("transport.frames_deduped").Value() == 0 {
		t.Error("the replayed flush was never deduplicated")
	}
}

func hasEvent(rec *telemetry.Recorder, kind telemetry.EventKind) bool {
	for _, ev := range rec.Events() {
		if ev.Kind == kind.String() {
			return true
		}
	}
	return false
}

// TestTCPSequenceGapClosesConnection speaks the wire protocol to the
// receiver directly: a frame above delivered+1 cannot happen on a live
// TCP connection, so the receiver closes it. The session then resumes
// once from the delivered high-water mark, and the gap is repaired.
func TestTCPSequenceGapClosesConnection(t *testing.T) {
	h := newCollectHandler()
	tr := newTestTCP(t, Config{Nodes: 1, Handler: h, Tuning: chaosTuning()})
	const session = 1 << 40 // distinct from the transport's own link sessions
	dial := func() (net.Conn, *bufio.Reader, uint64) {
		t.Helper()
		conn, err := net.Dial("tcp", tr.Addr())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		if _, err := conn.Write(appendFrame(nil, &frame{Kind: frameHello, Session: session, Node: 0})); err != nil {
			t.Fatal(err)
		}
		br := bufio.NewReader(conn)
		ack, err := readFrame(br, DefaultMaxFrame)
		if err != nil || ack.Kind != frameHelloAck {
			t.Fatalf("handshake: %+v, %v", ack, err)
		}
		return conn, br, ack.Seq
	}
	write := func(conn net.Conn, seqs ...uint64) {
		t.Helper()
		var buf []byte
		for _, seq := range seqs {
			buf = appendFrame(buf, &frame{Kind: frameData, Session: session, Seq: seq, Msg: testMsg("s0", int(seq)-1)})
		}
		if _, err := conn.Write(buf); err != nil {
			t.Fatal(err)
		}
	}

	conn, br, delivered := dial()
	if delivered != 0 {
		t.Fatalf("fresh session delivered = %d, want 0", delivered)
	}
	write(conn, 1, 3) // seq 2 never arrives
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	for {
		f, err := readFrame(br, DefaultMaxFrame)
		if err != nil {
			if errors.Is(err, os.ErrDeadlineExceeded) {
				t.Fatal("the gap did not close the connection")
			}
			break
		}
		if f.Kind != frameAck || f.Seq != 1 {
			t.Fatalf("got %+v before the close, want at most the ack of seq 1", f)
		}
	}

	conn, br, delivered = dial()
	if delivered != 1 {
		t.Fatalf("resumed session delivered = %d, want 1", delivered)
	}
	write(conn, 2, 3)
	for _, want := range []uint64{2, 3} {
		if ack, err := readFrame(br, DefaultMaxFrame); err != nil || ack.Kind != frameAck || ack.Seq != want {
			t.Fatalf("ack of seq %d: %+v, %v", want, ack, err)
		}
	}
	checkDelivered(t, h, 0, 3, "s0")
}

// TestTCPPartitionHealsAndResumes cuts the link mid-stream and heals
// it. A cut stalls the link rather than losing frames, so the same
// connection carries the backlog once healed: everything is delivered
// exactly once, with no reconnect.
func TestTCPPartitionHealsAndResumes(t *testing.T) {
	h := newCollectHandler()
	inj := faults.New(1).CutLinkAtFrame(0, 4)
	reg := telemetry.NewRegistry()
	tr := newTestTCP(t, Config{Nodes: 1, Handler: h, Faults: inj, Tuning: chaosTuning(), Metrics: reg})
	ctx := context.Background()
	for i := 0; i < 20; i++ {
		if err := tr.Send(ctx, 0, testMsg("s0", i)); err != nil {
			t.Fatal(err)
		}
	}
	// The trigger arms on the 4th written frame: the 4 frames written
	// before the cut arrive, nothing after them does. Hold the cut a
	// while, then heal and flush: the barrier completes only after the
	// healed link delivered the backlog.
	deadline := time.Now().Add(10 * time.Second)
	for !inj.LinkCut(0) || len(h.delivered(0)) < 4 {
		if time.Now().After(deadline) {
			t.Fatalf("the cut never bit (cut=%v, delivered %d)", inj.LinkCut(0), len(h.delivered(0)))
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond)
	if got := len(h.delivered(0)); got != 4 {
		t.Errorf("delivered %d tuples through the cut, want the 4 written before it", got)
	}
	inj.HealLink(0)
	if err := tr.Flush(ctx, 0); err != nil {
		t.Fatal(err)
	}
	checkDelivered(t, h, 0, 20, "s0")
	requireCounters(t, reg, map[string]int64{
		"transport.reconnects":  0,
		"transport.retransmits": 0,
		"transport.frames_sent": 21,
	})
}

// TestTCPSuspicionFiresOnSilence cuts a node's link symmetrically and
// never heals it: the failure detector must report the node exactly
// once.
func TestTCPSuspicionFiresOnSilence(t *testing.T) {
	h := newCollectHandler()
	inj := faults.New(1).CutLink(0)
	suspected := make(chan int, 2)
	tun := chaosTuning()
	tun.SuspectAfter = 60 * time.Millisecond
	reg := telemetry.NewRegistry()
	tr := newTestTCP(t, Config{
		Nodes: 1, Handler: h, Faults: inj, Tuning: tun, Metrics: reg,
		OnSuspect: func(node int) { suspected <- node },
	})
	if err := tr.Send(context.Background(), 0, testMsg("s0", 0)); err != nil {
		t.Fatal(err)
	}
	select {
	case node := <-suspected:
		if node != 0 {
			t.Fatalf("suspected node %d, want 0", node)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("suspicion never fired on a cut link")
	}
	if reg.Counter("transport.suspects").Value() != 1 {
		t.Errorf("suspects = %d, want 1", reg.Counter("transport.suspects").Value())
	}
	select {
	case <-suspected:
		t.Fatal("suspicion fired twice for one node")
	case <-time.After(3 * tun.SuspectAfter):
	}
}

// TestTCPCloseNodeSalvagesUndelivered tears down a partitioned link;
// the queued tuples come back for salvage, in order, and subsequent
// sends fail fast with the typed error.
func TestTCPCloseNodeSalvagesUndelivered(t *testing.T) {
	h := newCollectHandler()
	inj := faults.New(1).CutLink(0)
	tr := newTestTCP(t, Config{Nodes: 1, Handler: h, Faults: inj, Tuning: chaosTuning()})
	ctx := context.Background()
	for i := 0; i < 10; i++ {
		if err := tr.Send(ctx, 0, testMsg("s0", i)); err != nil {
			t.Fatal(err)
		}
	}
	msgs := tr.CloseNode(0)
	if len(msgs) != 10 {
		t.Fatalf("salvaged %d msgs, want 10", len(msgs))
	}
	for i, m := range msgs {
		if m.Seq != int64(i)+1 {
			t.Fatalf("salvage out of order: msg %d has seq %d", i, m.Seq)
		}
	}
	if err := tr.Send(ctx, 0, testMsg("s0", 99)); !errors.Is(err, ErrLinkDown) {
		t.Fatalf("send after CloseNode: got %v, want ErrLinkDown", err)
	}
	if err := tr.Flush(ctx, 0); !errors.Is(err, ErrLinkDown) {
		t.Fatalf("flush after CloseNode: got %v, want ErrLinkDown", err)
	}
}

// TestTCPFlushCarriesHandlerError round-trips a flush failure as a
// typed wire code plus text.
func TestTCPFlushCarriesHandlerError(t *testing.T) {
	boom := errors.New("window execution failed")
	h := &errFlushHandler{err: boom}
	tr := newTestTCP(t, Config{Nodes: 1, Handler: h})
	err := tr.Flush(context.Background(), 0)
	if err == nil || err.Error() != "transport: node 0 flush: window execution failed" {
		t.Fatalf("got %v, want wrapped flush error", err)
	}
}

type errFlushHandler struct{ err error }

func (h *errFlushHandler) HandleTuple(context.Context, int, Msg) error { return nil }
func (h *errFlushHandler) HandleFlush(context.Context, int) error      { return h.err }

// TestTCPSendHonorsContextOnFullWindow fills the send window of a cut
// link; a bounded Send must give up with the context error.
func TestTCPSendHonorsContextOnFullWindow(t *testing.T) {
	h := newCollectHandler()
	inj := faults.New(1).CutLink(0)
	tun := chaosTuning()
	tun.Window = 4
	tr := newTestTCP(t, Config{Nodes: 1, Handler: h, Faults: inj, Tuning: tun})
	ctx := context.Background()
	for i := 0; i < 4; i++ {
		if err := tr.Send(ctx, 0, testMsg("s0", i)); err != nil {
			t.Fatal(err)
		}
	}
	bounded, cancel := context.WithTimeout(ctx, 20*time.Millisecond)
	defer cancel()
	if err := tr.Send(bounded, 0, testMsg("s0", 4)); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want context.DeadlineExceeded", err)
	}
}
