package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/siemens"
)

// tally counts operations attempted and failed across a run.
type tally struct {
	attempted, failed int64
	notes             []string
}

func (t *tally) add(attempted, failed int64, format string, args ...any) {
	t.attempted += attempted
	t.failed += failed
	if failed > 0 {
		t.notes = append(t.notes, fmt.Sprintf("%d failed: ", failed)+fmt.Sprintf(format, args...))
	}
}

// churner registers and unregisters the workload's churn tasks on its
// own goroutine, triggered when the generator reaches fixed tuple
// indices, so registration runs beside ingest.
type churner struct {
	d     *deployment
	tasks []siemens.Task
	at    []int // tuple index of each op; op j registers (even) or unregisters (odd) tasks[j/2]
	next  int
	ops   chan int
	done  chan struct{}

	mu       sync.Mutex
	register map[string]time.Duration // RegisterTask latency per churned task
	errs     []error
}

func startChurn(d *deployment, tasks []siemens.Task, n int) *churner {
	c := &churner{
		d: d, tasks: tasks, ops: make(chan int, 2*len(tasks)), done: make(chan struct{}),
		register: map[string]time.Duration{},
	}
	for j := 0; j < 2*len(tasks); j++ {
		c.at = append(c.at, n*(j+1)/(2*len(tasks)+1))
	}
	go c.run()
	return c
}

func (c *churner) run() {
	defer close(c.done)
	for j := range c.ops {
		t := c.tasks[j/2]
		if j%2 == 0 {
			start := time.Now()
			_, err := c.d.sys.RegisterTask(t.ID, t.Query, c.d.log.sink)
			elapsed := time.Since(start)
			c.mu.Lock()
			if err == nil {
				c.register[t.ID] = elapsed
			} else {
				c.errs = append(c.errs, fmt.Errorf("register %s: %w", t.ID, err))
			}
			c.mu.Unlock()
			continue
		}
		if err := c.d.sys.Unregister(t.ID); err != nil {
			c.mu.Lock()
			c.errs = append(c.errs, fmt.Errorf("unregister %s: %w", t.ID, err))
			c.mu.Unlock()
		}
	}
}

// tick hands the churn goroutine every op due at tuple index i.
func (c *churner) tick(i int) {
	for c.next < len(c.at) && c.at[c.next] <= i {
		c.ops <- c.next
		c.next++
	}
}

// wait returns once every op has run.
func (c *churner) wait() {
	for c.next < len(c.at) {
		c.ops <- c.next
		c.next++
	}
	close(c.ops)
	<-c.done
}

// phase is one pass of the input through a deployment.
type phase struct {
	elapsed    time.Duration // first Ingest to the end of the final Flush
	flush      time.Duration // the final Flush alone
	alloc      uint64        // heap bytes allocated during the pass
	gcCycles   uint32
	gcPause    time.Duration
	ingestErrs int64
	flushErr   error
	// Open loop only: when the pass started, the send interval, and how
	// late each tuple was sent against its schedule.
	start    time.Time
	interval time.Duration
	late     []time.Duration
	churn    *churner
}

// scheduled is the open-loop send time of tuple i.
func (p *phase) scheduled(i int) time.Time {
	return p.start.Add(time.Duration(i) * p.interval)
}

// ingestFunc sends tuple i; the traced run swaps in a timed version.
type ingestFunc func(i int) error

// runPhase streams the whole input through d: as fast as Ingest returns
// (rate 0, closed loop) or on a fixed schedule at rate tuples/s (open
// loop), then flushes. Churn ops fire at their tuple indices.
func runPhase(d *deployment, in *input, churn []siemens.Task, rate float64, ingest ingestFunc) *phase {
	p := &phase{}
	if ingest == nil {
		ingest = func(i int) error { return d.sys.Ingest(in.routes[i], in.tuples[i]) }
	}
	if rate > 0 {
		p.interval = time.Duration(float64(time.Second) / rate)
		p.late = make([]time.Duration, len(in.tuples))
	}
	ch := startChurn(d, churn, len(in.tuples))
	p.churn = ch
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	p.start = time.Now()
	for i := range in.tuples {
		if rate > 0 {
			due := p.scheduled(i)
			if wait := time.Until(due); wait > 0 {
				time.Sleep(wait)
			}
			p.late[i] = time.Since(due)
		}
		ch.tick(i)
		if err := ingest(i); err != nil {
			p.ingestErrs++
		}
	}
	ch.wait()
	flushStart := time.Now()
	p.flushErr = d.sys.Flush()
	end := time.Now()
	p.flush = end.Sub(flushStart)
	p.elapsed = end.Sub(p.start)
	runtime.ReadMemStats(&m1)
	p.alloc = m1.TotalAlloc - m0.TotalAlloc
	p.gcCycles = m1.NumGC - m0.NumGC
	p.gcPause = time.Duration(m1.PauseTotalNs - m0.PauseTotalNs)
	return p
}

// account adds a pass's failed operations to the tally: ingest errors,
// the flush, and churn registrations and unregistrations.
func (p *phase) account(t *tally, label string, tuples int) {
	t.add(int64(tuples), p.ingestErrs, "%s: ingest errors", label)
	var flushFailed int64
	if p.flushErr != nil {
		flushFailed = 1
	}
	t.add(1, flushFailed, "%s: flush: %v", label, p.flushErr)
	ops := int64(len(p.churn.at))
	t.add(ops, int64(len(p.churn.errs)), "%s: churn: %v", label, p.churn.errs)
}
