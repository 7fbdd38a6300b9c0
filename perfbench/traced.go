package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/obda/cq"
	"repro/internal/obda/mapping"
	"repro/internal/obda/rewrite"
	"repro/internal/rdf"
	"repro/internal/siemens"
	"repro/internal/starql"
	"repro/internal/stream"
	"repro/internal/telemetry"
)

// The traced run times calls into each layer's public functions from
// this file: the registration path on the same task texts, and the
// window, durability and wire paths through standalone probes fed the
// run's own input. The asynchronous stream path is measured only
// through those probes; it is not reconciled against the end-to-end
// figures.

// reconcileTolerance is how far, as a share of the summed RegisterTask
// wall times, the summed standalone stage timings plus the system's own
// "register" spans may miss them. Single calls of the allocation-heavy
// stages swing by up to 2x with the collector on a 2-core host, so the
// check is on the sums of per-task medians; the largest per-task gap is
// reported as trace.register_gap_pct.
const reconcileTolerance = 0.30

// probeEventMS caps the input the standalone probes replay, so their
// cost stays a bounded share of the run.
const probeEventMS = 60_000

func runTraced(w workload, seed int64, seconds float64) (map[string]metric, *tally, error) {
	in, err := generate(w, seed)
	if err != nil {
		return nil, nil, err
	}
	describe(w, in)
	t := &tally{}
	r, err := measure(w, in, schedule(seconds), t, true)
	if err != nil {
		return nil, nil, err
	}
	rb, tasks, err := registrationBudget(w, t)
	if err != nil {
		return nil, nil, err
	}
	// The stream-path probes run the initial task set, the tasks that
	// stay registered for the whole stream.
	tasks = tasks[:len(w.tasks)]
	prefix := in.sourceAPrefix(probeEventMS)
	wp, err := windowPath(tasks, prefix)
	if err != nil {
		return nil, nil, err
	}
	ex, err := execPath(w, tasks, prefix)
	if err != nil {
		return nil, nil, err
	}
	rc, err := recoveryPath(w, tasks, prefix)
	if err != nil {
		return nil, nil, err
	}
	tp, err := transportPath(prefix)
	if err != nil {
		return nil, nil, err
	}
	info("samples: ingest calls %d, registrations %d, windows %d, checkpoints %d, transport sends %d",
		len(r.ingestNS), rb.tasks, wp.windows, rc.checkpoints, tp.sends)
	// The last closed-loop pass timed every Ingest call and the others
	// ran untraced: the gap between their drains prices the tracing.
	overhead := 100 * (1 - r.tracedDrain/quantile(r.drains, 0.5))
	return map[string]metric{
		"starql.parse_ms":            {ms(rb.parse), "ms"},
		"rewrite.perfectref_ms":      {ms(rb.perfectRef), "ms"},
		"rewrite.ucq_size":           {float64(rb.ucq), "count"},
		"mapping.unfold_ms":          {ms(rb.unfold), "ms"},
		"mapping.fleet_size":         {float64(rb.fleet), "count"},
		"mapping.constraint_pruned":  {float64(rb.pruned), "count"},
		"starql.bindings_ms":         {ms(rb.bindings), "ms"},
		"starql.translate_ms":        {ms(rb.translateSelf), "ms"},
		"starql.stream_fleet_size":   {float64(rb.streamFleet), "count"},
		"starql.compile_having_ms":   {ms(rb.compile), "ms"},
		"core.register_self_ms":      {ms(rb.registerSelf), "ms"},
		"trace.register_gap_pct":     {rb.maxGapPct, "%"},
		"cluster.ingest_call_ns_p50": {quantile(r.ingestNS, 0.5), "ns"},
		"cluster.ingest_call_ns_p99": {quantile(r.ingestNS, 0.99), "ns"},
		"cluster.flush_ms":           {ms(r.flush), "ms"},
		"stream.push_ns":             {wp.pushNS, "ns"},
		"relation.transpose_us":      {wp.transposeUS, "us"},
		"exastream.window_exec_us":   {ex.execUS, "us"},
		"exastream.windows":          {float64(ex.stats.WindowsExecuted), "count"},
		"exastream.rows_scanned":     {float64(ex.stats.RowsScanned), "count"},
		"exastream.plan_cache_hits":  {float64(ex.stats.PlanCacheHits), "count"},
		"exastream.wcache_hits":      {float64(ex.stats.WCacheHits), "count"},
		"starql.having_us":           {wp.havingUS, "us"},
		"starql.having_evals":        {float64(wp.evals), "count"},
		"starql.having_matches":      {float64(wp.matches), "count"},
		"core.alerts":                {float64(r.alerts), "count"},
		"core.triples":               {float64(r.triples), "count"},
		"recovery.encode_us":         {rc.encodeUS, "us"},
		"recovery.decode_us":         {rc.decodeUS, "us"},
		"recovery.checkpoint_bytes":  {rc.bytes, "B"},
		"recovery.checkpoints":       {float64(r.checkpoints), "count"},
		"transport.send_ns":          {tp.sendNS, "ns"},
		"transport.bytes_per_tuple":  {tp.bytesPerTuple, "B"},
		"runtime.gc_cycles":          {float64(r.gcCycles), "count"},
		"runtime.gc_pause_ms":        {ms(r.gcPause), "ms"},
		"loadgen.late_ms_p99":        {quantile(r.late, 0.99), "ms"},
		"loadgen.late_ms_max":        {quantile(r.late, 1), "ms"},
		"trace.overhead_pct":         {overhead, "%"},
	}, t, nil
}

// sourceAPrefix returns the msmt_a tuples of the first eventMS of input.
func (in *input) sourceAPrefix(eventMS int64) []stream.Timestamped {
	var out []stream.Timestamped
	for k, i := range in.aIdx {
		if in.aTS[k] >= eventMS {
			break
		}
		out = append(out, in.tuples[i])
	}
	return out
}

// translatedTask is one task's standalone registration artefacts, which
// the stream-path probes reuse.
type translatedTask struct {
	task     siemens.Task
	query    *starql.Query
	tl       *starql.Translation
	bindings []starql.Binding
}

// regBudget sums the registration-path stage timings over the
// workload's initial and churned tasks.
type regBudget struct {
	tasks                                     int
	wall, parse, perfectRef, unfold, bindings time.Duration
	translateSelf, compile, registerSelf      time.Duration
	span                                      time.Duration // core's own "register" spans
	ucq, fleet, pruned, streamFleet           int
	maxGapPct                                 float64
}

func timed(f func() error) (time.Duration, error) {
	start := time.Now()
	err := f()
	return time.Since(start), err
}

// registrationBudget registers every task on a fresh system, then calls
// the public functions core uses, in core's order, on the same texts:
// Parse, Translate (which runs PerfectRef, Unfold and EvalBindings
// inside), EvalBindings, CompileHaving. RegisterTask's wall time minus
// those calls is core's own share (placement plus the per-member
// registrations); the check is that it matches the system's own
// "register" span within the tolerance.
func registrationBudget(w workload, t *tally) (*regBudget, []translatedTask, error) {
	a, err := newAssets(w)
	if err != nil {
		return nil, nil, err
	}
	sys, err := newSystem(w, a)
	if err != nil {
		return nil, nil, err
	}
	defer sys.Close()
	tr := starql.NewTranslator(a.tbox, a.maps, a.cat)
	tracer := telemetry.NewTracer(0)
	b := &regBudget{}
	var tasks []translatedTask
	all := append(append([]siemens.Task(nil), w.tasks...), w.churn...)
	for _, task := range all {
		// Each stage is timed budgetReps times, alternating with a
		// RegisterTask of the same text under a fresh id, and the
		// medians are compared: single calls of a few milliseconds swing
		// with the collector.
		var walls, spans []time.Duration
		var reps []*stageTimes
		for k := 0; k < budgetReps; k++ {
			id := fmt.Sprintf("%s#%d", task.ID, k)
			wall, err := timed(func() error {
				_, err := sys.RegisterTask(id, task.Query, func(string, int64, []rdf.Triple) {})
				return err
			})
			if err != nil {
				return nil, nil, fmt.Errorf("register %s: %w", id, err)
			}
			span, ok := sys.Trace(id).Snapshot().FirstSpan("register")
			if !ok {
				return nil, nil, fmt.Errorf("%s: no register span", id)
			}
			if err := sys.Unregister(id); err != nil {
				return nil, nil, fmt.Errorf("unregister %s: %w", id, err)
			}
			s, err := stages(tr, a, tracer.Start(id), task)
			if err != nil {
				return nil, nil, fmt.Errorf("%s: %w", task.ID, err)
			}
			walls = append(walls, wall)
			spans = append(spans, time.Duration(span.DurationNS))
			reps = append(reps, s)
		}
		wall := medianOf(walls)
		s := reps[0].median(reps)
		calls := s.parse + s.translate + s.bindings + s.compile
		span := medianOf(spans)
		b.maxGapPct = math.Max(b.maxGapPct, 100*math.Abs(float64(wall-calls-span))/float64(wall))
		b.span += span
		b.tasks++
		b.wall += wall
		b.parse += s.parse
		b.perfectRef += s.perfectRef
		b.unfold += s.unfold
		b.bindings += s.bindings
		b.translateSelf += s.translate - s.perfectRef - s.unfold - s.bindings
		b.compile += s.compile
		b.registerSelf += wall - calls
		b.ucq += s.ucq
		b.fleet += s.fleet
		b.pruned += s.tl.UnfoldStats.ConstraintPruned
		b.streamFleet += len(s.tl.StreamFleet)
		tasks = append(tasks, translatedTask{task: task, query: s.query, tl: s.tl, bindings: s.bs})
	}
	// registerSelf is what the stage timings leave of RegisterTask; it
	// should be core's own "register" span.
	gap := math.Abs(float64(b.registerSelf-b.span)) / float64(b.wall)
	var miss int64
	if gap > reconcileTolerance {
		miss = 1
	}
	t.add(1, miss, "registration budget: stage timings plus register spans miss the RegisterTask wall time by %.0f%% (tolerance %.0f%%)", 100*gap, 100*reconcileTolerance)
	info("registration budget: %d tasks, wall %.3f ms, parts miss it by %.1f%% (tolerance %.0f%%), largest per-task gap %.1f%%",
		b.tasks, ms(b.wall), 100*gap, 100*reconcileTolerance, b.maxGapPct)
	return b, tasks, nil
}

// budgetReps is how many times the registration budget times each
// task's stages.
const budgetReps = 7

func medianOf(ds []time.Duration) time.Duration {
	xs := append([]time.Duration(nil), ds...)
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	return xs[len(xs)/2]
}

// median returns the per-stage medians of reps, with the artefacts of
// the first.
func (s *stageTimes) median(reps []*stageTimes) *stageTimes {
	field := func(f func(*stageTimes) time.Duration) time.Duration {
		ds := make([]time.Duration, len(reps))
		for i, r := range reps {
			ds[i] = f(r)
		}
		return medianOf(ds)
	}
	out := *s
	out.parse = field(func(r *stageTimes) time.Duration { return r.parse })
	out.perfectRef = field(func(r *stageTimes) time.Duration { return r.perfectRef })
	out.unfold = field(func(r *stageTimes) time.Duration { return r.unfold })
	out.translate = field(func(r *stageTimes) time.Duration { return r.translate })
	out.bindings = field(func(r *stageTimes) time.Duration { return r.bindings })
	out.compile = field(func(r *stageTimes) time.Duration { return r.compile })
	return &out
}

// stageTimes is one task's standalone registration-path timings.
type stageTimes struct {
	parse, perfectRef, unfold, translate, bindings, compile time.Duration
	ucq, fleet                                              int
	query                                                   *starql.Query
	tl                                                      *starql.Translation
	bs                                                      []starql.Binding
}

func stages(tr *starql.Translator, a *deployAssets, trace *telemetry.Trace, task siemens.Task) (*stageTimes, error) {
	s := &stageTimes{}
	var err error
	if s.parse, err = timed(func() (err error) { s.query, err = starql.Parse(task.Query); return }); err != nil {
		return nil, err
	}
	q := s.query
	staticCQ, err := starql.BGPToCQ(q.Where, q.WhereVars(), q.WhereFilters...)
	if err != nil {
		return nil, err
	}
	var ucq cq.UCQ
	var rstats rewrite.Stats
	if s.perfectRef, err = timed(func() (err error) { ucq, rstats, err = rewrite.PerfectRef(staticCQ, a.tbox, rewrite.Options{}); return }); err != nil {
		return nil, err
	}
	s.ucq = rstats.Result
	var ustats mapping.UnfoldStats
	if s.unfold, err = timed(func() (err error) { _, ustats, err = mapping.Unfold(ucq, a.maps, mapping.UnfoldOptions{}); return }); err != nil {
		return nil, err
	}
	s.fleet = ustats.FleetSize
	if s.translate, err = timed(func() (err error) { s.tl, err = tr.Translate(q, starql.Options{Trace: trace}); return }); err != nil {
		return nil, err
	}
	if s.bindings, err = timed(func() (err error) { s.bs, err = tr.EvalBindings(s.tl); return }); err != nil {
		return nil, err
	}
	if q.Having != nil {
		s.compile, _ = timed(func() error { starql.CompileHaving(q.Having, q.Aggregates); return nil })
	}
	return s, nil
}
