package cluster

import (
	"context"
	"fmt"
	"testing"
)

// TestInboxSteadyStateAllocatesNothing checks that once the ring has
// grown, a push/pop cycle reuses its array: no allocation per item.
func TestInboxSteadyStateAllocatesNothing(t *testing.T) {
	q := newInbox(1024)
	ctx := context.Background()
	w := work{stream: "s"}
	for i := 0; i < 40; i++ { // grow the ring past a burst of 40
		q.push(ctx, w)
	}
	for i := 0; i < 40; i++ {
		q.pop()
	}
	allocs := testing.AllocsPerRun(1000, func() {
		for i := 0; i < 8; i++ {
			if err := q.push(ctx, w); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 8; i++ {
			q.pop()
		}
	})
	if allocs != 0 {
		t.Fatalf("steady push/pop allocates %.1f times per run, want 0", allocs)
	}
	for i := range q.buf {
		if q.buf[i].stream != "" {
			t.Fatalf("popped slot %d still holds its item", i)
		}
	}
	// A burst past inboxKeepSlots gives its array back once drained.
	for i := 0; i <= inboxKeepSlots; i++ {
		q.push(ctx, w)
	}
	for q.length() > 0 {
		q.pop()
	}
	if q.buf != nil {
		t.Fatalf("drained inbox keeps a %d-slot ring", len(q.buf))
	}
}

// TestInboxOrderAcrossPushFront checks FIFO order through a wrapped
// ring: pushFront puts an item ahead of everything queued, past the
// capacity, while a flush marker keeps its place, and drain returns
// what is left in order.
func TestInboxOrderAcrossPushFront(t *testing.T) {
	q := newInbox(4)
	ctx := context.Background()
	item := func(i int) work { return work{stream: fmt.Sprint(i)} }
	// Wrap the ring's head past the array's end first.
	for i := 0; i < 14; i++ {
		q.push(ctx, item(-1))
		q.pop()
	}
	flush := make(chan error, 1)
	q.push(ctx, work{stream: "flush", flush: flush})
	for i := 1; i <= 3; i++ {
		q.push(ctx, item(i))
	}
	if !q.pushFront(item(0)) {
		t.Fatal("pushFront refused")
	}
	first, ok := q.pop()
	if !ok || first.stream != "0" {
		t.Fatalf("first pop = %q, want the pushed-front item 0", first.stream)
	}
	if first, ok = q.pop(); !ok || first.stream != "flush" {
		t.Fatalf("second pop = %q, want the flush marker", first.stream)
	}
	q.push(ctx, item(4))
	if !q.pushFront(item(9)) {
		t.Fatal("pushFront refused")
	}
	var got []string
	for _, w := range q.drain() {
		got = append(got, w.stream)
	}
	if want := "[9 1 2 3 4]"; fmt.Sprint(got) != want {
		t.Fatalf("queue order = %v, want %s", got, want)
	}
	if q.length() != 0 {
		t.Fatalf("length after drain = %d", q.length())
	}
}
