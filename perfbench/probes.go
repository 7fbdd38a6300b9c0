package main

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/exastream"
	"repro/internal/recovery"
	"repro/internal/siemens"
	"repro/internal/sql"
	"repro/internal/starql"
	"repro/internal/stream"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

// Standalone probes of the stream path, each fed the msmt_a tuples of
// the input's first probeEventMS.

// windowStats is the window operator, transpose and HAVING probes'
// result.
type windowStats struct {
	windows                       int
	pushNS, transposeUS, havingUS float64
	evals, matches                int64
}

// windowPath replays the prefix through a TimeSlidingWindow with each
// task's WindowSpec (stream.Push), transposes every emitted window
// (stream.Batch.Columns) and evaluates the task's HAVING condition on
// it the way core's window sink does (SequenceBuilder.BuildColumnar,
// then CompiledHaving.Eval per binding).
func windowPath(tasks []translatedTask, prefix []stream.Timestamped) (*windowStats, error) {
	schema := siemens.StreamSchemas()[0]
	seqs, err := starql.NewSequenceBuilder(schema, siemens.Mappings())
	if err != nil {
		return nil, err
	}
	ws := &windowStats{}
	var push, transpose, having time.Duration
	var pushes int
	for _, tt := range tasks {
		op, err := stream.NewTimeSlidingWindow(tt.tl.Window)
		if err != nil {
			return nil, err
		}
		var batches []stream.Batch
		start := time.Now()
		for _, el := range prefix {
			batches = append(batches, op.Push(el)...)
		}
		batches = append(batches, op.Flush()...)
		push += time.Since(start)
		pushes += len(prefix)
		start = time.Now()
		for _, b := range batches {
			b.Columns()
		}
		transpose += time.Since(start)
		ws.windows += len(batches)
		subjects := map[string]bool{}
		for _, b := range tt.bindings {
			for _, term := range b {
				if term.IsIRI() {
					subjects[term.Value] = true
				}
			}
		}
		q := tt.query
		if q.Having == nil {
			continue
		}
		compiled := starql.CompileHaving(q.Having, q.Aggregates)
		start = time.Now()
		for _, b := range batches {
			if len(b.Rows) == 0 {
				continue
			}
			seq, err := seqs.BuildColumnar(b, subjects)
			if err != nil {
				return nil, fmt.Errorf("%s: build sequence: %w", tt.task.ID, err)
			}
			if seq.Len() == 0 {
				continue
			}
			for _, binding := range tt.bindings {
				ok, err := compiled.Eval(seq, binding)
				ws.evals++
				if err == nil && ok {
					ws.matches++
				}
			}
		}
		having += time.Since(start)
	}
	if ws.windows == 0 || pushes == 0 {
		return nil, fmt.Errorf("window probe emitted no windows")
	}
	ws.pushNS = float64(push) / float64(pushes)
	ws.transposeUS = float64(transpose) / float64(time.Microsecond) / float64(ws.windows)
	ws.havingUS = float64(having) / float64(time.Microsecond) / float64(ws.windows)
	return ws, nil
}

// standaloneEngine returns an ExaStream engine over the workload's
// static catalog, configured as the system deploys it, with both
// measurement streams declared.
func standaloneEngine(w workload) (*exastream.Engine, error) {
	a, err := newAssets(w)
	if err != nil {
		return nil, err
	}
	e := exastream.NewEngine(a.cat, w.config().Engine)
	for _, sc := range siemens.StreamSchemas() {
		if err := e.DeclareStream(sc); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// execStats is the standalone fleet engine's result.
type execStats struct {
	execUS float64 // Engine.Ingest+Flush time per executed window
	stats  exastream.Stats
}

// execPath registers every task's unfolded stream fleet (what the
// paper's engineers wrote by hand) on one standalone ExaStream engine
// and replays the prefix through it.
func execPath(w workload, tasks []translatedTask, prefix []stream.Timestamped) (*execStats, error) {
	e, err := standaloneEngine(w)
	if err != nil {
		return nil, err
	}
	for _, tt := range tasks {
		for i, stmt := range tt.tl.StreamFleet {
			if err := e.Register(fmt.Sprintf("%s/%04d", tt.task.ID, i), stmt, tt.tl.Pulse, nil); err != nil {
				return nil, err
			}
		}
	}
	start := time.Now()
	for _, el := range prefix {
		if err := e.Ingest("msmt_a", el); err != nil {
			return nil, err
		}
	}
	if err := e.Flush(); err != nil {
		return nil, err
	}
	elapsed := time.Since(start)
	es := &execStats{stats: e.Stats()}
	if es.stats.WindowsExecuted == 0 {
		return nil, fmt.Errorf("fleet engine executed no windows")
	}
	es.execUS = float64(elapsed) / float64(time.Microsecond) / float64(es.stats.WindowsExecuted)
	return es, nil
}

// recoveryStats is the checkpoint codec probe's result.
type recoveryStats struct {
	checkpoints               int
	encodeUS, decodeUS, bytes float64
}

// defaultCheckpointEvery is the CLIs' checkpoint cadence, used for the
// codec probe on workloads that run with recovery off; maxCheckpoints
// bounds the probe's cost on large window states.
const (
	defaultCheckpointEvery = 64
	maxCheckpoints         = 16
)

// recoveryPath registers the tasks' runtime queries (what core
// registers per task) on a standalone engine, replays the prefix, and
// at the checkpoint cadence encodes and decodes Engine.ExportState()
// with the recovery codec.
func recoveryPath(w workload, tasks []translatedTask, prefix []stream.Timestamped) (*recoveryStats, error) {
	e, err := standaloneEngine(w)
	if err != nil {
		return nil, err
	}
	for _, tt := range tasks {
		stmt := sql.NewSelect()
		stmt.Items = []sql.SelectItem{{Star: true}}
		stmt.From = []*sql.TableRef{{
			Table: "msmt_a", IsStream: true, Alias: "w",
			Window: &sql.WindowSpec{RangeMS: tt.tl.Window.RangeMS, SlideMS: tt.tl.Window.SlideMS},
		}}
		if err := e.Register(tt.task.ID, stmt, tt.tl.Pulse, nil); err != nil {
			return nil, err
		}
	}
	every := w.checkpointEvery
	if every == 0 {
		every = defaultCheckpointEvery
	}
	rs := &recoveryStats{}
	var enc, dec time.Duration
	var bytes int
	for i, el := range prefix {
		if err := e.Ingest("msmt_a", el); err != nil {
			return nil, err
		}
		if (i+1)%every != 0 || rs.checkpoints == maxCheckpoints {
			continue
		}
		ck := &recovery.Checkpoint{TakenAtMS: el.TS, Engine: *e.ExportState()}
		start := time.Now()
		blob, err := recovery.Encode(ck)
		enc += time.Since(start)
		if err != nil {
			return nil, err
		}
		start = time.Now()
		_, err = recovery.Decode(blob)
		dec += time.Since(start)
		if err != nil {
			return nil, err
		}
		bytes += len(blob)
		rs.checkpoints++
	}
	if rs.checkpoints == 0 {
		return nil, fmt.Errorf("codec probe cut no checkpoints")
	}
	n := float64(rs.checkpoints)
	rs.encodeUS = float64(enc) / float64(time.Microsecond) / n
	rs.decodeUS = float64(dec) / float64(time.Microsecond) / n
	rs.bytes = float64(bytes) / n
	return rs, nil
}

// countingHandler is the receiving end of the standalone transport: it
// accepts every tuple and flush.
type countingHandler struct{ tuples atomic.Int64 }

func (h *countingHandler) HandleTuple(context.Context, int, transport.Msg) error {
	h.tuples.Add(1)
	return nil
}

func (h *countingHandler) HandleFlush(context.Context, int) error { return nil }

// transportStats is the TCP probe's result.
type transportStats struct {
	sends                 int
	sendNS, bytesPerTuple float64
}

// transportPath sends the prefix over a standalone loopback TCP
// transport (transport.TCP.Send), flushes, and reads the bytes on the
// wire from its transport.* counters.
func transportPath(prefix []stream.Timestamped) (*transportStats, error) {
	h := &countingHandler{}
	reg := telemetry.NewRegistry()
	tcp, err := transport.NewTCP(transport.Config{Nodes: 1, Handler: h, Metrics: reg})
	if err != nil {
		return nil, err
	}
	defer tcp.Close()
	ctx := context.Background()
	var send time.Duration
	for i, el := range prefix {
		start := time.Now()
		err := tcp.Send(ctx, 0, transport.Msg{Stream: "msmt_a", TS: el.TS, Seq: int64(i + 1), Row: el.Row})
		send += time.Since(start)
		if err != nil {
			return nil, err
		}
	}
	if err := tcp.Flush(ctx, 0); err != nil {
		return nil, err
	}
	if got := h.tuples.Load(); got != int64(len(prefix)) {
		return nil, fmt.Errorf("transport delivered %d of %d tuples", got, len(prefix))
	}
	n := float64(len(prefix))
	return &transportStats{
		sends:         len(prefix),
		sendNS:        float64(send) / n,
		bytesPerTuple: float64(reg.Snapshot().Counters["transport.bytes_sent"]) / n,
	}, nil
}
