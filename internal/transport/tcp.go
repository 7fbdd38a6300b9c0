// Framed TCP transport: one loopback (or LAN) listener per cluster,
// one link per worker node. Each link owns a session whose frames
// carry per-session monotonic sequence numbers; the receiver delivers
// them in order exactly once (deduplicating replays) and acknowledges
// cumulatively. A live TCP connection neither loses, duplicates nor
// reorders a frame, so a link recovers one way only: when its
// connection fails (an I/O error, a checksum or size error, a close,
// or a sequence gap the receiver refuses), it reconnects under
// jittered exponential backoff, resumes the session, and retransmits
// everything unacknowledged. A slow receiver is never reset; it holds
// the send window full and Send blocks. Silence beyond the suspicion
// timeout reports the node to OnSuspect, which the cluster wires to
// its checkpoint+log+salvage failover.
package transport

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
)

// Tuning are the TCP transport's knobs. The zero value resolves to
// the defaults documented per field; SuspectAfter < 0 disables
// suspicion (links then reconnect forever without ever reporting the
// node).
type Tuning struct {
	// MaxFrame bounds one frame's payload in bytes (default 1 MiB).
	MaxFrame int
	// Window caps queued+unacknowledged frames per link (default 1024);
	// a full window blocks Send, propagating receiver backpressure.
	Window int
	// HeartbeatEvery is the idle-link heartbeat interval (default
	// 100ms). Heartbeat acks feed the suspicion clock.
	HeartbeatEvery time.Duration
	// SuspectAfter is how long a link may stay silent before the node
	// is reported to OnSuspect (default 2s; < 0 disables suspicion).
	SuspectAfter time.Duration
	// DialTimeout bounds one dial plus session handshake (default 1s).
	DialTimeout time.Duration
	// ReconnectBackoff is the base reconnect delay (default 10ms),
	// doubled per consecutive failure with full jitter, capped at
	// 500ms — the same decorrelation scheme as cluster.RetryBusy.
	ReconnectBackoff time.Duration
}

const (
	defaultWindow         = 1024
	defaultHeartbeatEvery = 100 * time.Millisecond
	defaultSuspectAfter   = 2 * time.Second
	defaultDialTimeout    = time.Second
	defaultReconnectBase  = 10 * time.Millisecond
	maxReconnectBackoff   = 500 * time.Millisecond
)

func (t Tuning) resolved() Tuning {
	if t.MaxFrame <= 0 {
		t.MaxFrame = DefaultMaxFrame
	}
	if t.Window <= 0 {
		t.Window = defaultWindow
	}
	if t.HeartbeatEvery <= 0 {
		t.HeartbeatEvery = defaultHeartbeatEvery
	}
	if t.SuspectAfter == 0 {
		t.SuspectAfter = defaultSuspectAfter
	}
	if t.DialTimeout <= 0 {
		t.DialTimeout = defaultDialTimeout
	}
	if t.ReconnectBackoff <= 0 {
		t.ReconnectBackoff = defaultReconnectBase
	}
	return t
}

// Config configures a TCP transport.
type Config struct {
	// Nodes is the worker count; links are dialed eagerly for
	// 0..Nodes-1.
	Nodes int
	// Listen is the address to bind (default "127.0.0.1:0").
	Listen string
	// Tuning holds the failure-detection and framing knobs.
	Tuning Tuning
	// Handler receives delivered tuples and flush barriers.
	Handler Handler
	// OnSuspect, when set, is called (once per node, on its own
	// goroutine) when a link stays silent beyond SuspectAfter.
	OnSuspect func(node int)
	// Faults, when set, injects deterministic network chaos.
	Faults NetFaultInjector
	// Metrics receives the transport.* counters (nil = private).
	Metrics *telemetry.Registry
	// Recorder receives link lifecycle events (nil = disabled).
	Recorder *telemetry.Recorder
}

type tcpMetrics struct {
	framesSent  *telemetry.Counter
	framesRecv  *telemetry.Counter
	bytesSent   *telemetry.Counter
	retransmits *telemetry.Counter
	deduped     *telemetry.Counter
	reconnects  *telemetry.Counter
	suspects    *telemetry.Counter
	heartbeats  *telemetry.Counter
}

// TCP is the framed TCP transport. It owns both endpoints: the
// cluster-side links and the node-side listener (each worker node in
// this reproduction shares the process, as the channel transport's
// nodes do — the wire in between is real).
type TCP struct {
	cfg    Config
	tun    Tuning
	h      Handler
	faults NetFaultInjector
	met    tcpMetrics
	frec   *telemetry.Recorder

	ln    net.Listener
	addr  string
	links []*link

	sessMu   sync.Mutex
	sessions map[uint64]*session

	sessionIDs atomic.Uint64
	closed     atomic.Bool
	wg         sync.WaitGroup
}

// NewTCP binds the listener and dials one link per node. The links
// connect lazily in the background; Send queues immediately.
func NewTCP(cfg Config) (*TCP, error) {
	if cfg.Handler == nil {
		return nil, errors.New("transport: tcp needs a Handler")
	}
	if cfg.Nodes <= 0 {
		return nil, fmt.Errorf("transport: need at least one node, got %d", cfg.Nodes)
	}
	addr := cfg.Listen
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	t := &TCP{
		cfg:    cfg,
		tun:    cfg.Tuning.resolved(),
		h:      cfg.Handler,
		faults: cfg.Faults,
		frec:   cfg.Recorder,
		ln:     ln,
		addr:   ln.Addr().String(),
		met: tcpMetrics{
			framesSent:  reg.Counter("transport.frames_sent"),
			framesRecv:  reg.Counter("transport.frames_recv"),
			bytesSent:   reg.Counter("transport.bytes_sent"),
			retransmits: reg.Counter("transport.retransmits"),
			deduped:     reg.Counter("transport.frames_deduped"),
			reconnects:  reg.Counter("transport.reconnects"),
			suspects:    reg.Counter("transport.suspects"),
			heartbeats:  reg.Counter("transport.heartbeats"),
		},
		sessions: make(map[uint64]*session),
	}
	t.wg.Add(1)
	go t.acceptLoop()
	t.links = make([]*link, cfg.Nodes)
	for i := 0; i < cfg.Nodes; i++ {
		l := &link{
			t:       t,
			node:    i,
			session: t.sessionIDs.Add(1),
			wake:    make(chan struct{}, 1),
			done:    make(chan struct{}),
			flushes: make(map[uint64]chan error),
		}
		l.lastHeard.Store(time.Now().UnixNano())
		t.links[i] = l
		t.wg.Add(2)
		go l.run()
		go l.monitor()
	}
	return t, nil
}

// Addr reports the bound listener address (useful with Listen ":0").
func (t *TCP) Addr() string { return t.addr }

// Send queues one tuple on node's link. It blocks while the send
// window is full (receiver backpressure), honours ctx, and fails fast
// with ErrLinkDown once the link is torn down.
func (t *TCP) Send(ctx context.Context, node int, m Msg) error {
	l := t.links[node]
	l.mu.Lock()
	for {
		if l.down {
			l.mu.Unlock()
			return ErrLinkDown
		}
		if len(l.sendq)+len(l.unacked) < t.tun.Window {
			l.nextSeq++
			l.sendq = append(l.sendq, &frame{Kind: frameData, Session: l.session, Seq: l.nextSeq, Msg: m})
			l.mu.Unlock()
			l.kick()
			return nil
		}
		if l.spaceCh == nil {
			l.spaceCh = make(chan struct{})
		}
		ch := l.spaceCh
		l.mu.Unlock()
		select {
		case <-ch:
		case <-ctx.Done():
			return ctx.Err()
		}
		l.mu.Lock()
	}
}

// Flush sends a flush barrier after everything already queued and
// waits for the node's flush result.
func (t *TCP) Flush(ctx context.Context, node int) error {
	l := t.links[node]
	l.mu.Lock()
	if l.down {
		l.mu.Unlock()
		return ErrLinkDown
	}
	l.nextSeq++
	seq := l.nextSeq
	ch := make(chan error, 1)
	l.flushes[seq] = ch
	l.sendq = append(l.sendq, &frame{Kind: frameFlush, Session: l.session, Seq: seq})
	l.mu.Unlock()
	l.kick()
	select {
	case err := <-ch:
		return err
	case <-ctx.Done():
		return ctx.Err()
	}
}

// CloseNode tears down node's link and returns the data messages that
// were still queued or unacknowledged, oldest first, for salvage.
// Frames that were delivered but not yet acknowledged may appear here
// too — the recovery layer's per-stream sequence dedup absorbs them.
func (t *TCP) CloseNode(node int) []Msg {
	msgs := t.links[node].teardown()
	t.frec.Record(telemetry.EvLinkDown, "", "", 0, int64(node))
	return msgs
}

// Close tears down every link and the listener.
func (t *TCP) Close() error {
	if t.closed.Swap(true) {
		return nil
	}
	for _, l := range t.links {
		l.teardown()
	}
	err := t.ln.Close()
	t.wg.Wait()
	return err
}

// partitioned consults the fault injector for a cut link: while it is
// cut, neither end writes to it.
func (t *TCP) partitioned(node int) bool {
	return t.faults != nil && t.faults.NetPartitioned(node)
}

// ---- sender side: links ----

// link is the sender half of one node's connection: an outbound queue,
// the unacknowledged window, and the reconnect/resume state machine.
// Invariant: every seq in unacked precedes every seq in sendq, so
// (unacked ++ sendq) is always the in-order retransmission image.
type link struct {
	t    *TCP
	node int
	// session is the link's resumable identity; it survives
	// reconnects (frame seqs are per-session, so the receiver's dedup
	// state stays valid across connections).
	session uint64

	mu      sync.Mutex
	sendq   []*frame // not yet written on the current connection
	unacked []*frame // written on the current connection, awaiting cumulative ack
	nextSeq uint64
	flushes map[uint64]chan error
	down    bool
	conn    net.Conn
	spaceCh chan struct{} // closed when window space frees
	// outFrames counts data/flush frames written towards the node —
	// the deterministic clock the fault schedule runs on. Only the
	// current connection's writer touches it.
	outFrames int64

	wake      chan struct{} // writer wake-up, buffered 1
	done      chan struct{} // closed at teardown
	everUp    atomic.Bool
	suspected atomic.Bool
	lastHeard atomic.Int64 // unix nanos of the last frame from the node
}

func (l *link) kick() {
	select {
	case l.wake <- struct{}{}:
	default:
	}
}

func (l *link) isDown() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.down
}

// run is the link's connection state machine: dial, handshake, resume,
// serve until the connection fails, back off, repeat.
func (l *link) run() {
	defer l.t.wg.Done()
	attempt := 0
	for {
		if l.isDown() || l.t.closed.Load() {
			return
		}
		conn, delivered, err := l.dial()
		if err != nil {
			attempt++
			if !l.sleepBackoff(attempt) {
				return
			}
			continue
		}
		attempt = 0
		if !l.resume(conn, delivered) {
			conn.Close()
			return
		}
		if l.everUp.Swap(true) {
			l.t.met.reconnects.Inc()
			l.t.frec.Record(telemetry.EvLinkReconnect, "", "", 0, int64(l.node))
		} else {
			l.t.frec.Record(telemetry.EvLinkUp, "", "", 0, int64(l.node))
		}
		l.serve(conn)
		if l.isDown() || l.t.closed.Load() {
			return
		}
		l.t.frec.Record(telemetry.EvLinkDown, "", "", 0, int64(l.node))
		attempt++
		if !l.sleepBackoff(attempt) {
			return
		}
	}
}

// dial connects and completes the session handshake, returning the
// receiver's delivered high-water mark for this session. A cut link
// never writes its hello, so the handshake times out until it heals.
func (l *link) dial() (net.Conn, uint64, error) {
	conn, err := net.DialTimeout("tcp", l.t.addr, l.t.tun.DialTimeout)
	if err != nil {
		return nil, 0, err
	}
	hello := frame{Kind: frameHello, Session: l.session, Node: l.node}
	if !l.t.partitioned(l.node) {
		if _, err := conn.Write(appendFrame(nil, &hello)); err != nil {
			conn.Close()
			return nil, 0, err
		}
	}
	_ = conn.SetReadDeadline(time.Now().Add(l.t.tun.DialTimeout))
	ack, err := readFrame(conn, l.t.tun.MaxFrame)
	if err != nil || ack.Kind != frameHelloAck || ack.Session != l.session {
		conn.Close()
		if err == nil {
			err = fmt.Errorf("transport: bad handshake reply kind %d", ack.Kind)
		}
		return nil, 0, err
	}
	_ = conn.SetReadDeadline(time.Time{})
	l.lastHeard.Store(time.Now().UnixNano())
	return conn, ack.Seq, nil
}

// resume installs the new connection and prepares retransmission:
// data frames the receiver already delivered are completed, everything
// else moves back to the front of the send queue in seq order. Flush
// frames are always retransmitted — the receiver replies to replays
// from its cached result, so a flush waiter survives resets. It
// reports false when the link tore down meanwhile.
func (l *link) resume(conn net.Conn, delivered uint64) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.down {
		return false
	}
	var resend []*frame
	for _, f := range l.unacked {
		if f.Kind == frameData && f.Seq <= delivered {
			continue // already delivered; ack was lost with the old conn
		}
		resend = append(resend, f)
	}
	if n := len(resend); n > 0 {
		l.t.met.retransmits.Add(int64(n))
	}
	l.sendq = append(resend, l.sendq...)
	l.unacked = nil
	l.freeSpaceLocked()
	l.conn = conn
	return true
}

// serve runs the connection's writer and reader until one fails, then
// closes the connection and waits for both.
func (l *link) serve(conn net.Conn) {
	stop := make(chan struct{})
	wrote := make(chan struct{})
	go func() {
		defer close(wrote)
		l.writeLoop(conn, stop)
		conn.Close()
	}()
	l.readLoop(conn)
	close(stop)
	conn.Close()
	<-wrote
	l.mu.Lock()
	if l.conn == conn {
		l.conn = nil
	}
	l.mu.Unlock()
}

// writeLoop drains the send queue onto the connection, moving frames
// into the unacked window, applying the injected frame schedule, and
// heartbeating when idle. While the link is cut it writes nothing and
// the frames stay queued. It exits when the reader stops, the link
// tears down, a write fails, or the schedule resets the connection.
func (l *link) writeLoop(conn net.Conn, stop <-chan struct{}) {
	bw := bufio.NewWriter(conn)
	var scratch []byte
	hb := time.NewTicker(l.t.tun.HeartbeatEvery)
	defer hb.Stop()
	for {
		cut := l.t.partitioned(l.node)
		l.mu.Lock()
		if l.down {
			l.mu.Unlock()
			return
		}
		var batch []*frame
		if !cut {
			batch = l.sendq
			l.sendq = nil
			l.unacked = append(l.unacked, batch...)
		}
		l.mu.Unlock()
		if len(batch) == 0 {
			if err := bw.Flush(); err != nil {
				return
			}
			select {
			case <-l.wake:
			case <-hb.C:
				if !l.t.partitioned(l.node) {
					f := frame{Kind: frameHeartbeat, Session: l.session}
					scratch = appendFrame(scratch[:0], &f)
					if _, err := bw.Write(scratch); err != nil {
						return
					}
					if err := bw.Flush(); err != nil {
						return
					}
					l.t.met.heartbeats.Inc()
				}
			case <-stop:
				return
			case <-l.done:
				return
			}
			continue
		}
		for i := range batch {
			if l.t.partitioned(l.node) {
				l.hold(batch[i:])
				break
			}
			var reset bool
			if l.t.faults != nil {
				l.outFrames++
				var delay time.Duration
				reset, delay = l.t.faults.NetFrameAction(l.node, l.outFrames)
				if delay > 0 {
					if err := bw.Flush(); err != nil { // drain before stalling
						return
					}
					select {
					case <-time.After(delay):
					case <-stop:
						return
					case <-l.done:
						return
					}
				}
			}
			scratch = appendFrame(scratch[:0], batch[i])
			l.t.met.framesSent.Inc()
			l.t.met.bytesSent.Add(int64(len(scratch)))
			if _, err := bw.Write(scratch); err != nil {
				return
			}
			if reset {
				_ = bw.Flush()
				return // serve closes the connection; resume repairs it
			}
		}
		if err := bw.Flush(); err != nil {
			return
		}
	}
}

// hold moves the unwritten tail of a batch, which a cut stopped, from
// the end of the unacked window back to the head of the send queue.
func (l *link) hold(rest []*frame) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.down {
		return
	}
	l.unacked = l.unacked[:len(l.unacked)-len(rest)]
	l.sendq = append(slices.Clip(rest), l.sendq...)
}

// readLoop consumes acknowledgements until the connection fails. Acks
// and heartbeat acks both carry the receiver's cumulative
// acknowledgement for this connection.
func (l *link) readLoop(conn net.Conn) {
	br := bufio.NewReader(conn)
	for {
		f, err := readFrame(br, l.t.tun.MaxFrame)
		if err != nil {
			return
		}
		l.lastHeard.Store(time.Now().UnixNano())
		switch f.Kind {
		case frameAck, frameHeartbeatAck:
			l.ackTo(f.Seq)
		case frameFlushAck:
			// Resolve the waiter before the cumulative ack pops its
			// entry — ackTo treats a popped flush without a result as
			// lost.
			l.completeFlush(f)
			l.ackTo(f.Seq)
		}
	}
}

// ackTo completes every unacked frame with seq <= cum (cumulative
// acknowledgement). The receiver answers each flush frame before it
// acknowledges anything after it on the same connection, so a flush
// popped here without its flushAck lost its result; its waiter fails
// retryably rather than wait forever.
func (l *link) ackTo(cum uint64) {
	l.mu.Lock()
	var lostFlushes []chan error
	for len(l.unacked) > 0 && l.unacked[0].Seq <= cum {
		f := l.unacked[0]
		if f.Kind == frameFlush {
			if ch, ok := l.flushes[f.Seq]; ok {
				delete(l.flushes, f.Seq)
				lostFlushes = append(lostFlushes, ch)
			}
		}
		l.unacked = l.unacked[1:]
	}
	l.freeSpaceLocked()
	l.mu.Unlock()
	for _, ch := range lostFlushes {
		ch <- ErrSessionReset
	}
}

// completeFlush resolves a flush waiter from its typed wire result.
func (l *link) completeFlush(f frame) {
	l.mu.Lock()
	ch, ok := l.flushes[f.Seq]
	if ok {
		delete(l.flushes, f.Seq)
	}
	l.mu.Unlock()
	if !ok {
		return
	}
	switch f.Code {
	case flushOK:
		ch <- nil
	case flushNodeDown:
		ch <- ErrLinkDown
	case flushSessionReset:
		ch <- ErrSessionReset
	default:
		ch <- fmt.Errorf("transport: node %d flush: %s", l.node, f.Err)
	}
}

func (l *link) freeSpaceLocked() {
	if l.spaceCh != nil && len(l.sendq)+len(l.unacked) < l.t.tun.Window {
		close(l.spaceCh)
		l.spaceCh = nil
	}
}

// monitor is the link's failure detector: it reports the node once
// when nothing has been heard from it for longer than the suspicion
// timeout. It never touches the connection — a slow receiver holds
// the window full instead of being reset.
func (l *link) monitor() {
	defer l.t.wg.Done()
	if l.t.tun.SuspectAfter < 0 {
		return
	}
	tick := time.NewTicker(l.t.tun.HeartbeatEvery)
	defer tick.Stop()
	for {
		select {
		case <-l.done:
			return
		case <-tick.C:
		}
		if time.Since(time.Unix(0, l.lastHeard.Load())) > l.t.tun.SuspectAfter &&
			!l.suspected.Swap(true) {
			l.t.met.suspects.Inc()
			l.t.frec.Record(telemetry.EvLinkSuspect, "", "", 0, int64(l.node))
			if f := l.t.cfg.OnSuspect; f != nil {
				go f(l.node)
			}
		}
	}
}

// sleepBackoff sleeps the jittered exponential reconnect delay;
// false means the link tore down while waiting.
func (l *link) sleepBackoff(attempt int) bool {
	d := l.t.tun.ReconnectBackoff
	for i := 1; i < attempt; i++ {
		d *= 2
		if d >= maxReconnectBackoff {
			d = maxReconnectBackoff
			break
		}
	}
	sleep := d/2 + time.Duration(rand.Int63n(int64(d/2)+1))
	select {
	case <-time.After(sleep):
		return true
	case <-l.done:
		return false
	}
}

// teardown marks the link down, fails pending flush waiters, wakes
// blocked senders, and returns the undelivered data messages in seq
// order for salvage.
func (l *link) teardown() []Msg {
	l.mu.Lock()
	if l.down {
		l.mu.Unlock()
		return nil
	}
	l.down = true
	var msgs []Msg
	for _, f := range append(append([]*frame(nil), l.unacked...), l.sendq...) {
		if f.Kind == frameData {
			msgs = append(msgs, f.Msg)
		}
	}
	l.unacked, l.sendq = nil, nil
	waiters := make([]chan error, 0, len(l.flushes))
	for seq, ch := range l.flushes {
		waiters = append(waiters, ch)
		delete(l.flushes, seq)
	}
	if l.spaceCh != nil {
		close(l.spaceCh)
		l.spaceCh = nil
	}
	conn := l.conn
	l.conn = nil
	close(l.done)
	l.mu.Unlock()
	for _, ch := range waiters {
		ch <- ErrLinkDown
	}
	if conn != nil {
		conn.Close()
	}
	return msgs
}

// ---- receiver side: listener, sessions ----

// session is the receiver's per-link delivery state: the contiguous
// delivered high-water mark (dedup) and the last flush result
// (replayed flush frames are answered from it instead of re-running
// the barrier).
type session struct {
	mu        sync.Mutex
	node      int
	delivered uint64
	flushSeq  uint64
	flushCode byte
	flushErr  string
}

func (t *TCP) sessionFor(id uint64, node int) *session {
	t.sessMu.Lock()
	defer t.sessMu.Unlock()
	s, ok := t.sessions[id]
	if !ok {
		s = &session{node: node}
		t.sessions[id] = s
	}
	return s
}

func (t *TCP) acceptLoop() {
	defer t.wg.Done()
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			return // listener closed
		}
		t.wg.Add(1)
		go t.serveConn(conn)
	}
}

// serveConn is the node-side handler for one inbound connection:
// handshake, then deliver sequenced frames and acknowledge
// cumulatively. Replies batch: they are written once the read buffer
// drains or the oldest has waited a heartbeat interval (a slow
// receiver behind a full buffer still reports progress), and not at
// all while the link is cut.
func (t *TCP) serveConn(conn net.Conn) {
	defer t.wg.Done()
	defer conn.Close()
	_ = conn.SetReadDeadline(time.Now().Add(2 * t.tun.DialTimeout))
	hello, err := readFrame(conn, t.tun.MaxFrame)
	if err != nil || hello.Kind != frameHello || hello.Node < 0 || hello.Node >= t.cfg.Nodes {
		return
	}
	_ = conn.SetReadDeadline(time.Time{})
	sess := t.sessionFor(hello.Session, hello.Node)
	br := bufio.NewReader(conn)
	var out []byte // replies not yet written
	var since time.Time
	reply := func(f *frame) {
		if len(out) == 0 {
			since = time.Now()
		}
		out = appendFrame(out, f)
	}
	flush := func() bool {
		if len(out) == 0 || t.partitioned(sess.node) {
			return true // a cut holds the replies until it heals
		}
		_, err := conn.Write(out)
		out = out[:0]
		return err == nil
	}
	sess.mu.Lock()
	reply(&frame{Kind: frameHelloAck, Session: hello.Session, Seq: sess.delivered})
	sess.mu.Unlock()
	if !flush() {
		return
	}
	// acked is this connection's cumulative ack: the seq of the last
	// sequenced frame read on it. Every earlier frame the connection
	// carried is answered already, so an ack up to acked never pops a
	// flush whose flushAck is still to come (sess.delivered could: an
	// old connection's tail may have delivered a flush this one has yet
	// to replay).
	var acked uint64
	for {
		f, err := readFrame(br, t.tun.MaxFrame)
		if err != nil {
			return
		}
		t.met.framesRecv.Inc()
		switch f.Kind {
		case frameData, frameFlush:
			if !t.handleSequenced(sess, f, reply) {
				return
			}
			acked = f.Seq
		case frameHeartbeat:
			reply(&frame{Kind: frameHeartbeatAck, Session: f.Session, Seq: acked})
		}
		if (br.Buffered() == 0 || time.Since(since) >= t.tun.HeartbeatEvery) && !flush() {
			return
		}
	}
}

// handleSequenced delivers one data/flush frame in session order and
// queues its reply: a data frame's ack, a flush frame's flushAck, each
// acknowledging the frame's own seq cumulatively. A replay at or below
// the delivered high-water mark is acknowledged without redelivery
// (a flush replay is answered from the cached result); it arrives when
// a resumed session retransmits what an old connection's tail already
// delivered. A frame above delivered+1 is a protocol error: false
// closes the connection, and the sender's resume repairs it.
func (t *TCP) handleSequenced(sess *session, f frame, reply func(*frame)) bool {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	switch {
	case f.Seq > sess.delivered+1:
		return false
	case f.Seq == sess.delivered+1:
		t.deliverLocked(sess, f)
	default:
		t.met.deduped.Inc()
	}
	if f.Kind == frameData {
		reply(&frame{Kind: frameAck, Session: f.Session, Seq: f.Seq})
		return true
	}
	code, text := flushSessionReset, ""
	if f.Seq == sess.flushSeq {
		code, text = sess.flushCode, sess.flushErr
	}
	reply(&frame{Kind: frameFlushAck, Session: f.Session, Seq: f.Seq, Code: code, Err: text})
	return true
}

// deliverLocked hands one in-order frame to the cluster handler and
// advances the session high-water mark. Tuple delivery errors are the
// routing layer's drop accounting, not transport failures; a flush
// result is cached for its reply and any replay.
func (t *TCP) deliverLocked(sess *session, f frame) {
	sess.delivered = f.Seq
	if f.Kind == frameData {
		_ = t.h.HandleTuple(context.Background(), sess.node, f.Msg)
		return
	}
	err := t.h.HandleFlush(context.Background(), sess.node)
	code, text := flushOK, ""
	switch {
	case err == nil:
	case errors.Is(err, ErrLinkDown):
		code = flushNodeDown
	default:
		code, text = flushErr, err.Error()
	}
	sess.flushSeq, sess.flushCode, sess.flushErr = f.Seq, code, text
}
