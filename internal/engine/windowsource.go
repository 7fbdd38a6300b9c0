package engine

import "repro/internal/relation"

// WindowSourcePlan is a rebindable leaf: a scan whose rows are swapped
// out between executions. It lets a continuous query's physical plan be
// built and optimized once, then re-executed every window tick by
// rebinding the current window batch — the compile-once/execute-many
// contract of the streaming pipeline. Bind and Execute must not race;
// the stream engine serializes them under the owning query's execution
// lock.
type WindowSourcePlan struct {
	Name   string
	schema relation.Schema
	cols   *relation.ColBatch
	rows   []relation.Tuple // cols as rows, once the row path asks

	// executeVec scratch, reused across serialized executions (see the
	// concurrency contract in vec.go).
	vf vecFrame
}

// NewWindowSourcePlan creates an unbound window source with a fixed
// schema (already qualified with the stream alias).
func NewWindowSourcePlan(name string, schema relation.Schema) *WindowSourcePlan {
	return &WindowSourcePlan{Name: name, schema: schema}
}

// Bind points the source at the current window batch's columns. They
// are retained, not copied; callers must not mutate them until the next
// Bind. The stream engine passes each batch's shared columnar form, so
// every query over one window reads one copy. The row path (Execute)
// materialises the rows from them, once per window.
func (w *WindowSourcePlan) Bind(cols *relation.ColBatch) {
	w.rows, w.cols = nil, cols
}

func (w *WindowSourcePlan) Schema() relation.Schema { return w.schema }

func (w *WindowSourcePlan) Execute(ctx *ExecContext) ([]relation.Tuple, error) {
	ctx.Stats.enter(OpWindowSource)
	if w.rows == nil && w.cols != nil && w.cols.Len() > 0 {
		w.rows = w.cols.Rows()
	}
	ctx.Stats.RowsScanned += int64(len(w.rows))
	ctx.Stats.produced(OpWindowSource, len(w.rows))
	return w.rows, nil
}

func (w *WindowSourcePlan) Children() []Plan { return nil }

// String is deliberately independent of the currently bound batch:
// optimizer signatures (e.g. union dedup) compare plan strings, and two
// sources over the same stream reference stay interchangeable across
// ticks.
func (w *WindowSourcePlan) String() string { return "WindowSource(" + w.Name + ")" }
