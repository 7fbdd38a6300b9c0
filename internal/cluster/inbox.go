package cluster

import (
	"context"
	"sync"
)

// inbox is a node's bounded work queue. A push at a full queue blocks
// until space frees up or its context ends (the bounded-memory criteria
// of Schiff & Özçep, arXiv:2007.16040). Unlike a raw channel it supports
// requeueing an in-flight item after a worker restart (pushFront),
// salvaging queued work when a node dies (drain), and waking blocked
// producers on shutdown — the send-on-closed-channel panic the old
// implementation risked cannot happen here.
//
// Flush markers always fit regardless of capacity: they carry no data,
// so a flush barrier never waits for queue space.
//
// The queue is a ring over one array that doubles when full and is
// otherwise reused, so a steady push/pop cycle allocates nothing, and a
// popped slot is zeroed so it keeps no tuple reachable.
type inbox struct {
	mu       sync.Mutex
	buf      []work // ring: item i is buf[(head+i)&(len(buf)-1)], i < n
	head, n  int
	capacity int
	closed   bool          // cluster shut down: pushes fail with ErrClusterClosed
	failed   bool          // node declared dead: pushes fail with errNodeDown
	halted   bool          // worker stopped for transport failover: pop ends, items stay
	itemCh   chan struct{} // closed when an item arrives; consumer waits on it
	spaceCh  chan struct{} // closed when space frees up; producers wait on it
}

func newInbox(capacity int) *inbox {
	return &inbox{capacity: capacity}
}

// push enqueues w, waiting for space while the queue is full. It
// returns ctx.Err() for an expired wait, ErrClusterClosed / errNodeDown
// when the inbox is down.
func (q *inbox) push(ctx context.Context, w work) error {
	for {
		// Check cancellation before taking the lock: a producer woken by a
		// freed slot could otherwise keep losing the race for it and spin
		// here long after its context expired — and a push with an
		// already-dead context must not enqueue at all.
		if err := ctx.Err(); err != nil {
			return err
		}
		q.mu.Lock()
		if q.closed {
			q.mu.Unlock()
			return ErrClusterClosed
		}
		if q.failed {
			q.mu.Unlock()
			return errNodeDown
		}
		if q.n < q.capacity || w.flush != nil {
			q.appendLocked(w)
			q.mu.Unlock()
			return nil
		}
		if q.spaceCh == nil {
			q.spaceCh = make(chan struct{})
		}
		ch := q.spaceCh
		q.mu.Unlock()
		select {
		case <-ch:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// at returns the ring slot of queued item i (0 = oldest).
func (q *inbox) at(i int) int { return (q.head + i) & (len(q.buf) - 1) }

// growLocked makes room for one more item: a full ring moves, in order,
// to an array twice its size (a power of two, so at can mask).
func (q *inbox) growLocked() {
	if q.n < len(q.buf) {
		return
	}
	buf := make([]work, max(2*len(q.buf), 16))
	for i := 0; i < q.n; i++ {
		buf[i] = q.buf[q.at(i)]
	}
	q.buf, q.head = buf, 0
}

// appendLocked adds w and wakes the consumer.
func (q *inbox) appendLocked(w work) {
	q.growLocked()
	q.buf[q.at(q.n)] = w
	q.n++
	q.wakeConsumerLocked()
}

func (q *inbox) wakeConsumerLocked() {
	if q.itemCh != nil {
		close(q.itemCh)
		q.itemCh = nil
	}
}

// inboxKeepSlots is the largest ring an empty inbox keeps. A burst
// deeper than that (a closed-loop producer fills the whole queue) gives
// its array back once the queue drains, so an idle node does not hold
// its peak queue's memory; shallower queues keep reusing one array.
const inboxKeepSlots = 256

// popLocked removes and returns the oldest item, zeroing its slot.
func (q *inbox) popLocked() work {
	w := q.buf[q.head]
	q.buf[q.head] = work{}
	q.head = q.at(1)
	q.n--
	if q.n == 0 && len(q.buf) > inboxKeepSlots {
		q.buf, q.head = nil, 0
	}
	return w
}

// pushFront requeues an item at the head of the queue (retry of the
// in-flight item after a worker restart, or a restore job that must run
// before queued tuples). Capacity is ignored: retried items were
// already admitted once and control items are never shed. Returns false
// when the inbox is down and the item could not be accepted.
func (q *inbox) pushFront(w work) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed || q.failed {
		if w.flush != nil {
			close(w.flush)
		}
		return false
	}
	q.growLocked()
	q.head = q.at(len(q.buf) - 1)
	q.buf[q.head] = w
	q.n++
	q.wakeConsumerLocked()
	return true
}

// pop blocks until an item is available. ok=false means the inbox is
// closed (or failed) and drained — or halted, in which case queued
// items stay put for the failover's drain: the worker should exit.
func (q *inbox) pop() (work, bool) {
	for {
		q.mu.Lock()
		if q.halted {
			q.mu.Unlock()
			return work{}, false
		}
		if q.n > 0 {
			w := q.popLocked()
			if q.spaceCh != nil {
				close(q.spaceCh)
				q.spaceCh = nil
			}
			q.mu.Unlock()
			return w, true
		}
		if q.closed || q.failed {
			q.mu.Unlock()
			return work{}, false
		}
		if q.itemCh == nil {
			q.itemCh = make(chan struct{})
		}
		ch := q.itemCh
		q.mu.Unlock()
		<-ch
	}
}

// length reports the current queue depth.
func (q *inbox) length() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.n
}

// halt stops the worker without condemning the queue: pop returns
// false immediately (the consumer exits cleanly), queued items stay for
// a later drain, and pushes still land in the buffer. It is the first
// step of a transport-triggered failover — the node must stop
// processing before its state is migrated, or a window could execute on
// both sides of the handoff.
func (q *inbox) halt() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.halted = true
	q.wakeConsumerLocked()
}

// requeue appends w ignoring capacity: used to fold a torn-down
// transport link's in-flight tuples back into the inbox so failover
// salvages them with the rest (they were admitted once already).
// Returns false when the inbox is down.
func (q *inbox) requeue(w work) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed || q.failed {
		if w.flush != nil {
			close(w.flush)
		}
		return false
	}
	q.appendLocked(w)
	return true
}

// fail marks the inbox dead (node failure): blocked producers wake and
// their pushes convert to drops; queued items stay for drain.
func (q *inbox) fail() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.failed = true
	q.wakeAllLocked()
}

// close marks the inbox shut down (cluster Close). The worker drains
// what remains and exits.
func (q *inbox) close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.closed = true
	q.wakeAllLocked()
}

func (q *inbox) wakeAllLocked() {
	q.wakeConsumerLocked()
	if q.spaceCh != nil {
		close(q.spaceCh)
		q.spaceCh = nil
	}
}

// drain removes and returns everything still queued (salvage on node
// death).
func (q *inbox) drain() []work {
	q.mu.Lock()
	defer q.mu.Unlock()
	items := make([]work, q.n)
	for i := range items {
		items[i] = q.buf[q.at(i)]
	}
	q.buf, q.head, q.n = nil, 0, 0
	return items
}
