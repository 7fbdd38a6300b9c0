// Package transport is the pluggable node transport behind the cluster
// routing layer. The paper's ExaStream deployment spread workers over
// 1–128 networked VMs; the cluster package simulates those workers
// in-process, and this package abstracts the hop between the routing
// layer and a worker's inbox so the same routing code drives either an
// in-process channel hop (the default — tests keep their byte-identical
// single-process semantics) or a framed TCP link with real failure
// modes: torn frames, stalls, and connections that close.
//
// The TCP transport layers reliability on the framing conventions of
// internal/recovery (length-prefixed, FNV-1a-checksummed frames): each
// link carries one session with monotonically increasing frame
// sequence numbers, cumulative acknowledgements, heartbeats with
// timeout-based suspicion, and one recovery path: when a connection
// fails, jittered reconnect backoff and session resumption that
// retransmits unacknowledged frames while the receiver deduplicates
// replays by sequence number. Duplicated window emissions
// that survive a re-execution after failover are deduplicated one
// layer up by the recovery emit gate, so delivery stays exactly-once
// end to end.
package transport

import (
	"context"
	"errors"
	"time"

	"repro/internal/relation"
)

// Typed link errors. Both are transient from the caller's point of
// view — the link heals (reconnect + session resume) or the node's
// queries fail over to a reachable worker — so cluster.RetryBusy
// treats them as retryable.
var (
	// ErrLinkDown is returned by Send/Flush when the link to the target
	// node is suspected dead or has been torn down. Retryable: either
	// the link reconnects or the node's queries fail over elsewhere.
	ErrLinkDown = errors.New("transport: link down")
	// ErrSessionReset is returned for in-flight operations whose fate
	// became unknowable when the peer lost the session (e.g. a flush
	// barrier pending across a reset the receiver no longer remembers).
	// Retryable: the next attempt runs on the fresh session.
	ErrSessionReset = errors.New("transport: session reset")
)

// Msg is one routed data-plane message: a stream tuple bound for a
// worker node. Seq is the per-stream ingest sequence the recovery
// subsystem assigns at routing time (0 when recovery is off); it rides
// the frame so replay dedup survives the wire.
type Msg struct {
	Stream string
	TS     int64
	Seq    int64
	Row    relation.Tuple
}

// Handler is the receiving end of a transport: the cluster's node
// inboxes. HandleTuple delivers one tuple to the node, waiting
// while its queue is full (an error means the tuple was not
// queued — the handler accounts the drop); HandleFlush runs a flush
// barrier on the node and reports the engine's flush error.
type Handler interface {
	HandleTuple(ctx context.Context, node int, m Msg) error
	HandleFlush(ctx context.Context, node int) error
}

// Transport moves routed messages from the cluster's routing layer to
// worker nodes. Implementations must preserve per-node FIFO order for
// Send and order Flush barriers after every Send that preceded them.
type Transport interface {
	// Send delivers one tuple to node. The channel transport delivers
	// synchronously (the handler's error comes back verbatim); the TCP
	// transport queues the frame for the link and returns once it is
	// accepted into the send window, failing fast with ErrLinkDown when
	// the link has been torn down.
	Send(ctx context.Context, node int, m Msg) error
	// Flush sends a flush barrier to node, after all previously sent
	// tuples, and waits for the node's flush result.
	Flush(ctx context.Context, node int) error
	// CloseNode tears down the link to a node (failover: the node is
	// unreachable or dead) and returns the messages that were still
	// queued or unacknowledged — the caller salvages them onto
	// surviving nodes. Subsequent Sends to the node fail with
	// ErrLinkDown.
	CloseNode(node int) []Msg
	// Close tears down every link and listener.
	Close() error
}

// NetFaultInjector is the optional chaos hook the TCP transport
// consults (see internal/faults for the deterministic implementation).
// It models only what a TCP connection can show. NetPartitioned
// reports whether node's link is currently cut: neither end writes to
// a cut link, so its frames and replies wait until it heals (a stall,
// not a loss). NetFrameAction consults the schedule for the nth
// data/flush frame written towards node (1-based, per link): delay
// stalls the frame before it is written (a slow link: everything
// behind it waits too), and reset closes the connection right after it
// is written (the link reconnects and resumes its session).
type NetFaultInjector interface {
	NetPartitioned(node int) bool
	NetFrameAction(node int, nth int64) (reset bool, delay time.Duration)
}
