package main

import (
	"fmt"
	"math"
	"runtime"
	"time"
)

// passSpec is one pass of a run: it deploys a fresh system (a timed
// set-up) and streams the whole input through it, closed loop (as fast
// as Ingest returns) or open loop (at the workload's fixed rate). The
// first pass's alert set is the reference every later pass must match.
type passSpec struct {
	label string
	open  bool
}

// openPassSeconds is how long one open-loop pass lasts at the
// workload's rate; the input is sized to it.
const openPassSeconds = 3

// openLoopShare is the share of a run's measuring time spent in
// open-loop passes.
const openLoopShare = 0.75

// schedule lists a run's passes: cycles of one closed-loop and one
// open-loop pass, as many as fill openLoopShare of the run with
// open-loop passes. The host's speed drifts from minute to minute;
// short passes of both kinds spread over the whole run keep a slow
// stretch from landing on one kind of pass only.
func schedule(runSeconds float64) []passSpec {
	cycles := max(2, int(math.Round(runSeconds*openLoopShare/openPassSeconds)))
	var out []passSpec
	for c := 1; c <= cycles; c++ {
		out = append(out,
			passSpec{fmt.Sprintf("closed%d", c), false},
			passSpec{fmt.Sprintf("open%d", c), true})
	}
	return out
}

// minLatencySamples keeps at least ten samples beyond the p90.
const minLatencySamples = 100

// endToEnd holds what the passes of a run measured.
type endToEnd struct {
	setups    []float64                  // s of wall time, one per pass
	setupCPUs []float64                  // s of process CPU time, one per pass
	register  map[string][]time.Duration // RegisterTask latencies per task
	drains    []float64                  // tuples/s, one per untraced closed pass
	closedIn  int                        // tuples ingested by those passes
	closedFor time.Duration              // their summed duration
	latency   []float64                  // ms, open-loop alerts closed by a tuple
	late      []float64                  // ms, open-loop send lateness per tuple
	alloc     uint64                     // heap bytes allocated during the passes
	ingested  int
	retained  []float64 // MB of live heap an open system holds after Flush
	gcCycles  uint32
	gcPause   time.Duration

	// Traced runs only: the last closed-loop pass times every Ingest
	// call; the first pass's alert and recovery counters.
	ingestNS    []float64
	tracedDrain float64
	flush       time.Duration
	alerts      int
	triples     int
	checkpoints int64
}

// runEndToEnd is the untraced run: every end-to-end metric.
func runEndToEnd(w workload, seed int64, seconds float64) (map[string]metric, *tally, error) {
	in, err := generate(w, seed)
	if err != nil {
		return nil, nil, err
	}
	describe(w, in)
	t := &tally{}
	r, err := measure(w, in, schedule(seconds), t, false)
	if err != nil {
		return nil, nil, err
	}
	info("samples: alert latency %d, set-ups %d, register %d tasks x %d passes, closed passes %d",
		len(r.latency), len(r.setups), len(r.register), len(r.setups), len(r.drains))
	info("drain per closed pass: %.0f tuples/s", r.drains)
	info("loadgen late: p99 %.3f ms, max %.3f ms", quantile(r.late, 0.99), quantile(r.late, 1))
	if len(r.latency) < minLatencySamples {
		return nil, nil, fmt.Errorf("only %d alert latency samples; p90 needs %d", len(r.latency), minLatencySamples)
	}
	// The wall-clock figures are printed, not reported: on a shared
	// host their spread from run to run exceeded the largest bound
	// BENCHMARK.json may give a metric (see README.md, Steadiness).
	// setup_s is set-up's CPU time for the same reason: it leaves out
	// the time the process waited for a CPU, which in one set of runs
	// doubled the wall time for minutes at a stretch.
	info("set-up wall time %.6f s (median of %d)", quantile(r.setups, 0.5), len(r.setups))
	info("register_ms_p50 %.4f ms (%d tasks)", r.registerP50(), len(r.register))
	info("drain_tuples_per_s %.1f 1/s (%d closed passes)", float64(r.closedIn)/r.closedFor.Seconds(), len(r.drains))
	info("alert_latency_ms_p50 %.4f ms, alert_latency_ms_p90 %.4f ms (%d samples)",
		quantile(r.latency, 0.5), quantile(r.latency, 0.9), len(r.latency))
	return map[string]metric{
		"setup_s":               {quantile(r.setupCPUs, 0.5), "s"},
		"alloc_bytes_per_tuple": {float64(r.alloc) / float64(r.ingested), "B"},
		"retained_heap_mb":      {quantile(r.retained, 0.5), "MB"},
	}, t, nil
}

// registerP50 is the mean, over the run's tasks, of each task's median
// RegisterTask latency across the passes. A plain median over all calls
// sits on the gap between the sub-millisecond threshold and trend tasks
// and the much slower monotonic and correlation tasks wherever they
// are half the set, and jumps between the two clusters from run to run.
func (r *endToEnd) registerP50() float64 {
	var sum float64
	for _, ds := range r.register {
		sum += quantile(durationsMS(ds), 0.5)
	}
	return sum / float64(len(r.register))
}

func describe(w workload, in *input) {
	info("workload %s: %d nodes, transport %s, checkpoint every %d tuples, shared windows %v, %d turbines",
		w.name, w.nodes, w.transport, w.checkpointEvery, w.shareWindows, w.turbines)
	info("tasks: %s; churn: %d tasks", taskIDs(w), len(w.churn))
	info("input: %d tuples over %d s event time, %d ramps, open-loop rate %.0f tuples/s, digest %s",
		len(in.tuples), in.spanMS/1000, len(in.ramps), w.rate, in.digest()[:16])
}

// measure runs the passes, checking every pass's alerts. With traced
// set, the last closed-loop pass times each Ingest call.
func measure(w workload, in *input, passes []passSpec, t *tally, traced bool) (*endToEnd, error) {
	r := &endToEnd{register: map[string][]time.Duration{}}
	churned := map[string]bool{}
	for _, c := range w.churn {
		churned[c.ID] = true
	}
	tracedPass := -1
	if traced {
		for k, ps := range passes {
			if !ps.open {
				tracedPass = k
			}
		}
	}
	var refHash string
	for k, ps := range passes {
		timed := k == tracedPass
		runtime.GC()
		var base runtime.MemStats
		runtime.ReadMemStats(&base)
		d, err := deploy(w)
		if err != nil {
			return nil, err
		}
		t.add(int64(len(w.tasks)), 0, "")
		r.setups = append(r.setups, d.setup.Seconds())
		r.setupCPUs = append(r.setupCPUs, d.setupCPU.Seconds())
		for i, task := range w.tasks {
			r.register[task.ID] = append(r.register[task.ID], d.register[i])
		}
		rate := 0.0
		if ps.open {
			rate = w.rate
		}
		var ingest ingestFunc
		if timed {
			r.ingestNS = make([]float64, len(in.tuples))
			ingest = func(i int) error {
				start := time.Now()
				err := d.sys.Ingest(in.routes[i], in.tuples[i])
				r.ingestNS[i] = float64(time.Since(start))
				return err
			}
		}
		p := runPhase(d, in, w.churn, rate, ingest)
		for id, dur := range p.churn.register {
			r.register[id] = append(r.register[id], dur)
		}
		r.alloc += p.alloc
		r.ingested += len(in.tuples)
		r.gcCycles += p.gcCycles
		r.gcPause += p.gcPause
		p.account(t, ps.label, len(in.tuples))
		checkSystem(t, ps.label, d.sys)
		alerts := d.log.snapshot()
		if err := checkRamps(t, ps.label, w, in, alerts); err != nil {
			d.sys.Close()
			return nil, err
		}
		hash, n := alertSetHash(alerts, churned)
		if k == 0 {
			refHash = hash
			r.alerts = n
			for _, a := range alerts {
				if !churned[a.task] {
					r.triples += len(a.triples)
				}
			}
			r.checkpoints = d.sys.TelemetrySnapshot().Counters["recovery.checkpoints"]
			info("alert set: %d (task, window) alerts, hash %s", n, hash[:16])
		} else {
			var mismatch int64
			if hash != refHash {
				mismatch = 1
			}
			t.add(1, mismatch, "%s: alert set hash %s differs from %s's %s", ps.label, hash[:16], passes[0].label, refHash[:16])
		}
		if ps.open {
			for _, a := range alerts {
				if churned[a.task] {
					continue
				}
				if idx := in.closingIndex(a.end); idx >= 0 {
					r.latency = append(r.latency, ms(a.at.Sub(p.scheduled(idx))))
				}
			}
			r.late = append(r.late, durationsMS(p.late)...)
		} else {
			drain := float64(len(in.tuples)) / p.elapsed.Seconds()
			if timed {
				r.tracedDrain = drain
				r.flush = p.flush
			} else {
				r.drains = append(r.drains, drain)
				r.closedIn += len(in.tuples)
				r.closedFor += p.elapsed
			}
			// Retained heap: what the still-open system holds once the
			// alerts this pass recorded are dropped.
			d.log.reset()
			runtime.GC()
			var live runtime.MemStats
			runtime.ReadMemStats(&live)
			r.retained = append(r.retained, float64(live.HeapAlloc-base.HeapAlloc)/(1<<20))
		}
		d.sys.Close()
	}
	return r, nil
}
