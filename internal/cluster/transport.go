// Transport wiring: the routing layer (IngestContext, Flush) reaches
// worker inboxes through a pluggable transport.Transport instead of
// calling enqueue directly. The default channel transport preserves the
// original in-process hop exactly; the TCP transport runs the same
// traffic over framed loopback sessions with retransmission, failure
// detection, and suspicion-triggered failover — the deployment shape
// the paper's 1–128 VM clusters had, with a real wire in between.
package cluster

import (
	"context"
	"fmt"
	"sync/atomic"

	"repro/internal/stream"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

// TransportKind selects how the routing layer reaches worker nodes.
type TransportKind int

const (
	// TransportChannel delivers in-process on the caller's goroutine —
	// the default, and behaviourally identical to the pre-transport
	// cluster.
	TransportChannel TransportKind = iota
	// TransportTCP delivers over framed, checksummed, sequenced loopback
	// TCP sessions with heartbeat failure detection; a node whose link
	// stays silent beyond the suspicion timeout is failed over.
	TransportTCP
)

func (k TransportKind) String() string {
	if k == TransportTCP {
		return "tcp"
	}
	return "channel"
}

// ParseTransport resolves a -transport flag value.
func ParseTransport(s string) (TransportKind, error) {
	switch s {
	case "", "channel":
		return TransportChannel, nil
	case "tcp":
		return TransportTCP, nil
	default:
		return 0, fmt.Errorf("cluster: unknown transport %q (want channel or tcp)", s)
	}
}

// Transport errors, re-exported so callers retry without importing the
// transport package: both are transient from the submitter's view (the
// link reconnects, the session resumes) and RetryBusy treats them as
// retryable.
var (
	// ErrLinkDown reports a send or flush at a node whose link is torn
	// down (the node failed over, or the cluster is closing).
	ErrLinkDown = transport.ErrLinkDown
	// ErrSessionReset reports an operation whose outcome was lost to a
	// connection reset; the work may or may not have happened, and
	// idempotent callers simply retry.
	ErrSessionReset = transport.ErrSessionReset
)

// transportHandler adapts the cluster's delivery path to
// transport.Handler. Delivery semantics — the wait at a full queue,
// drop accounting at dead nodes, the flush barrier through the worker — stay
// here in the cluster, so every transport shares them.
type transportHandler struct{ c *Cluster }

// HandleTuple enqueues one delivered tuple on the node, waiting while
// its queue is full — exactly the hop IngestContext performed before
// transports existed.
func (h transportHandler) HandleTuple(ctx context.Context, node int, m transport.Msg) error {
	c := h.c
	if node < 0 || node >= len(c.nodes) {
		return fmt.Errorf("cluster: transport delivery to unknown node %d", node)
	}
	w := work{stream: m.Stream, el: stream.Timestamped{TS: m.TS, Row: m.Row}, seq: m.Seq}
	return c.nodes[node].enqueue(ctx, w)
}

// HandleFlush runs the flush barrier through the node's worker: a flush
// marker is queued behind everything already accepted and the worker's
// result awaited. A dead node maps to ErrLinkDown — typed, so it
// survives the TCP hop as a flush-ack code.
func (h transportHandler) HandleFlush(ctx context.Context, node int) error {
	c := h.c
	if node < 0 || node >= len(c.nodes) {
		return fmt.Errorf("cluster: transport flush at unknown node %d", node)
	}
	ack := make(chan error, 1)
	if err := c.nodes[node].enqueue(ctx, work{flush: ack}); err != nil {
		if err == errNodeDown {
			return ErrLinkDown
		}
		return err
	}
	select {
	case err, ok := <-ack:
		if !ok {
			return ErrLinkDown // the node died with the marker queued
		}
		return err
	case <-ctx.Done():
		return ctx.Err()
	}
}

// newTransport builds the configured transport for a freshly
// constructed cluster.
func (c *Cluster) newTransport() (transport.Transport, error) {
	h := transportHandler{c: c}
	if c.opts.Transport != TransportTCP {
		return transport.NewChannel(h), nil
	}
	netFaults, _ := c.opts.Faults.(transport.NetFaultInjector)
	return transport.NewTCP(transport.Config{
		Nodes:     len(c.nodes),
		Listen:    c.opts.Listen,
		Tuning:    c.opts.TransportTuning,
		Handler:   h,
		OnSuspect: c.transportFailover,
		Faults:    netFaults,
		Metrics:   c.reg,
		Recorder:  c.frec,
	})
}

// send routes one tuple to a node through the transport.
func (c *Cluster) send(ctx context.Context, node int, streamName string, el stream.Timestamped, seq int64) error {
	return c.tr.Send(ctx, node, transport.Msg{Stream: streamName, TS: el.TS, Seq: seq, Row: el.Row})
}

// sendFailed reports whether a routed tuple failed because its target
// node is gone — a routing race the caller cannot act on (the tuple is
// accounted as a drop or salvaged by failover), not an ingest error.
func sendFailed(err error) bool {
	return err == errNodeDown || err == ErrLinkDown
}

// transportFailover is the suspicion-triggered failover: the failure
// detector declared a node's link silent, so its queries migrate to
// survivors exactly as if the worker had exhausted its restart budget.
// In the deployment this simulates the worker may be healthy but
// unreachable; here worker and routing layer share a process, so the
// worker is first stopped deterministically — halt the inbox, wait the
// goroutine out — and everything still queued, including the frames the
// transport had in flight, joins the failover's salvage set.
func (c *Cluster) transportFailover(node int) {
	if node < 0 || node >= len(c.nodes) {
		return
	}
	n := c.nodes[node]
	c.mu.Lock()
	if c.closed || n.failingOver || NodeState(atomic.LoadInt32(&n.state)) != NodeLive {
		c.mu.Unlock()
		return
	}
	n.failingOver = true
	c.recovering++ // WaitSettled covers the whole migration
	c.mu.Unlock()

	c.frec.Record(telemetry.EvTransportFailover, "", "", 0, int64(node))
	n.in.halt()
	n.wg.Wait()
	// The transport's undelivered frames were admitted by Send but never
	// reached the inbox: requeue them so failover salvages them with the
	// rest. Frames delivered but unacknowledged reappear here too — the
	// recovery layer's per-stream seq dedup absorbs the overlap.
	for _, m := range c.tr.CloseNode(node) {
		n.in.requeue(work{stream: m.Stream, el: stream.Timestamped{TS: m.TS, Row: m.Row}, seq: m.Seq})
	}
	c.failover(n)
	c.settle(-1)
}
