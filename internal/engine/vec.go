package engine

import (
	"cmp"
	"fmt"
	"time"

	"repro/internal/relation"
	"repro/internal/sql"
)

// This file is the batch-at-a-time execution path: operators that have a
// columnar kernel implement vecPlan and exchange vecFrames (column
// vectors plus a selection bitmap) instead of materialised tuple slices,
// so a window is processed with a handful of vector loops rather than a
// closure call per tuple. The tuple-at-a-time Execute path is kept
// intact as the differential oracle and as the fallback for operators
// without a kernel; execChild stitches the two together at any point in
// a plan tree.
//
// Semantics contract: for every (sub-expression, row) pair, the columnar
// evaluator computes exactly what the row path computes, and it
// evaluates the same pair set — AND/OR narrow the evaluation selection
// the way short-circuiting narrows the row set. Error *presence* is
// therefore identical; when several nodes can fail, the row path stops
// at the first failing row of the whole expression while the columnar
// path stops at the first failing row of one node, so which error is
// reported may differ.
//
// Concurrency contract: kernels follow the plan execution contract —
// executions of one compiled plan are serialized by the owner (the
// stream engine's per-query execMu), exactly like Bind and the lazy
// compiled-flag writes on the row path. Kernels exploit this by keeping
// per-node scratch buffers (vecBufs, FilterPlan.keep, the window
// source's frame) that are overwritten on the next execution, so no
// frame outlives the execution that produced it. Frames leave a
// columnar subtree in one of two ways: ExecutePlanColumns, at the plan
// root, hands the selected rows to the caller — window results reach
// the stream engine's sink columnar — and materialize turns them into
// tuples only where a row-only operator (aggregate, hash join, sort,
// union) sits above the subtree. The *input* vectors of a shared window
// batch (and a ValuesPlan's cached batch) are read-only and safely
// shared across concurrently executing queries, so a result column that
// is such a vector, with every row selected, is handed out as is;
// everything else — kernel scratch, projected or computed vectors, any
// selection — is copied into fresh vectors.

// vecFrame is a columnar intermediate result: column vectors of logical
// length n plus an optional selection bitmap (nil = every row selected).
// Values at unselected positions are unspecified. ro[j] reports that
// cols[j] is a read-only input vector (see the concurrency contract);
// nil means none is.
type vecFrame struct {
	cols []*relation.Vector
	n    int
	sel  *relation.Bitmap
	ro   []bool
}

// vecBufs is scratch owned by one kernel closure and reused across
// executions under the concurrency contract above: each execution
// overwrites the previous one's buffers and result header. Handed-out
// slices have unspecified contents — nothing is cleared, so callers
// must write every position they later read.
type vecBufs struct {
	out   relation.Vector
	bools []bool
	sts   []uint8
}

func (b *vecBufs) boolSlice(n int) []bool {
	if cap(b.bools) < n {
		b.bools = make([]bool, n)
	}
	b.bools = b.bools[:n]
	return b.bools
}

func (b *vecBufs) stSlice(n int) []uint8 {
	if cap(b.sts) < n {
		b.sts = make([]uint8, n)
	}
	b.sts = b.sts[:n]
	return b.sts
}

// boolVec wraps the kernel's result, reusing the header allocation.
func (b *vecBufs) boolVec(vals []bool, nulls *relation.Bitmap) *relation.Vector {
	return b.out.ResetBool(vals, nulls)
}

func selCount(n int, sel *relation.Bitmap) int {
	if sel == nil {
		return n
	}
	return sel.Count()
}

func (f *vecFrame) count() int { return selCount(f.n, f.sel) }

// eachSel visits selected row indexes in ascending order; fn returns
// false to stop early (error propagation).
func eachSel(n int, sel *relation.Bitmap, fn func(i int) bool) {
	if sel == nil {
		for i := 0; i < n; i++ {
			if !fn(i) {
				return
			}
		}
		return
	}
	for i := sel.Next(0); i >= 0; i = sel.Next(i + 1) {
		if !fn(i) {
			return
		}
	}
}

// selIdxs lists the selected row indexes of a frame with a selection.
func selIdxs(sel *relation.Bitmap, cnt int) []int {
	idxs := make([]int, 0, cnt)
	for i := sel.Next(0); i >= 0; i = sel.Next(i + 1) {
		idxs = append(idxs, i)
	}
	return idxs
}

// materialize converts the frame back to tuples — the boundary to
// row-only operators (aggregate, hash join, sort, union) above a
// columnar subtree. All tuples share one flat backing array (two
// allocations per frame instead of one per row), and each column is
// written with its type dispatch hoisted out of the row loop.
func (f *vecFrame) materialize() []relation.Tuple {
	cnt := f.count()
	if cnt == 0 {
		return nil
	}
	ncols := len(f.cols)
	backing := make([]relation.Value, cnt*ncols)
	out := make([]relation.Tuple, cnt)
	for k := range out {
		out[k] = relation.Tuple(backing[k*ncols : (k+1)*ncols : (k+1)*ncols])
	}
	var idxs []int
	if f.sel != nil {
		idxs = selIdxs(f.sel, cnt)
	}
	for j, c := range f.cols {
		fillColumn(backing, j, ncols, c, f.n, idxs)
	}
	return out
}

// columns compacts the frame's selected rows into a ColBatch — the
// boundary to result sinks. With every row selected, a read-only input
// vector is aliased and any other column (kernel scratch the next
// execution overwrites) is cloned; with a selection every column is
// gathered by selection index. The result aliases no engine scratch.
func (f *vecFrame) columns() *relation.ColBatch {
	cnt := f.count()
	if cnt == 0 {
		return noRows
	}
	cols := make([]*relation.Vector, len(f.cols))
	if f.sel == nil {
		for j, c := range f.cols {
			if f.ro != nil && f.ro[j] {
				cols[j] = c
			} else {
				cols[j] = c.Clone()
			}
		}
		return relation.NewColBatch(cols, cnt)
	}
	idxs := selIdxs(f.sel, cnt)
	for j, c := range f.cols {
		cols[j] = c.Gather(idxs)
	}
	return relation.NewColBatch(cols, cnt)
}

// fillColumn writes column j of the materialised frame: slot k of the
// backing gets the k-th selected element of v. idxs lists the selected
// row indexes (nil = all n rows).
func fillColumn(backing []relation.Value, j, stride int, v *relation.Vector, n int, idxs []int) {
	var nb *relation.Bitmap
	if v.HasNulls() {
		nb = v.Nulls()
	}
	et := v.ElemType()
	if et == relation.TNull { // generic or all-NULL layout
		if idxs == nil {
			for i := 0; i < n; i++ {
				backing[i*stride+j] = v.Value(i)
			}
		} else {
			for k, i := range idxs {
				backing[k*stride+j] = v.Value(i)
			}
		}
		return
	}
	switch et {
	case relation.TInt, relation.TTime:
		ints := v.Ints()
		if idxs == nil {
			for i := 0; i < n; i++ {
				if nb != nil && nb.Get(i) {
					backing[i*stride+j] = relation.Null
				} else {
					backing[i*stride+j] = relation.Value{Type: et, Int: ints[i]}
				}
			}
		} else {
			for k, i := range idxs {
				if nb != nil && nb.Get(i) {
					backing[k*stride+j] = relation.Null
				} else {
					backing[k*stride+j] = relation.Value{Type: et, Int: ints[i]}
				}
			}
		}
	case relation.TFloat:
		fs := v.Floats()
		if idxs == nil {
			for i := 0; i < n; i++ {
				if nb != nil && nb.Get(i) {
					backing[i*stride+j] = relation.Null
				} else {
					backing[i*stride+j] = relation.Value{Type: relation.TFloat, Float: fs[i]}
				}
			}
		} else {
			for k, i := range idxs {
				if nb != nil && nb.Get(i) {
					backing[k*stride+j] = relation.Null
				} else {
					backing[k*stride+j] = relation.Value{Type: relation.TFloat, Float: fs[i]}
				}
			}
		}
	case relation.TString:
		ss := v.Strs()
		if idxs == nil {
			for i := 0; i < n; i++ {
				if nb != nil && nb.Get(i) {
					backing[i*stride+j] = relation.Null
				} else {
					backing[i*stride+j] = relation.Value{Type: relation.TString, Str: ss[i]}
				}
			}
		} else {
			for k, i := range idxs {
				if nb != nil && nb.Get(i) {
					backing[k*stride+j] = relation.Null
				} else {
					backing[k*stride+j] = relation.Value{Type: relation.TString, Str: ss[i]}
				}
			}
		}
	case relation.TBool:
		bs := v.Bools()
		if idxs == nil {
			for i := 0; i < n; i++ {
				if nb != nil && nb.Get(i) {
					backing[i*stride+j] = relation.Null
				} else {
					backing[i*stride+j] = relation.Value{Type: relation.TBool, Bool: bs[i]}
				}
			}
		} else {
			for k, i := range idxs {
				if nb != nil && nb.Get(i) {
					backing[k*stride+j] = relation.Null
				} else {
					backing[k*stride+j] = relation.Value{Type: relation.TBool, Bool: bs[i]}
				}
			}
		}
	}
}

// vecPlan is implemented by operators with a columnar kernel.
type vecPlan interface {
	executeVec(ctx *ExecContext) (*vecFrame, error)
}

// canVectorize reports whether the whole subtree rooted at p has
// columnar kernels. Operators outside the set run on the row path with
// any vectorizable subtree below them materialised at the boundary.
func canVectorize(p Plan) bool {
	switch x := p.(type) {
	case *WindowSourcePlan, *ValuesPlan:
		return true
	case *FilterPlan:
		return canVectorize(x.Input)
	case *ProjectPlan:
		return canVectorize(x.Input)
	case *LimitPlan:
		return canVectorize(x.Input)
	case *LookupJoinPlan:
		return canVectorize(x.Left)
	default:
		return false
	}
}

// execChild evaluates a child plan: columnar when the subtree has
// kernels, the ordinary row path otherwise. Row operators call it in
// place of child.Execute so a vectorizable subtree below a row-only
// operator still runs columnar.
func execChild(ctx *ExecContext, p Plan) ([]relation.Tuple, error) {
	defer chargeWall(ctx, p, time.Now())
	if !ctx.rowPath && canVectorize(p) {
		f, err := p.(vecPlan).executeVec(ctx)
		if err != nil {
			return nil, err
		}
		return f.materialize(), nil
	}
	return p.Execute(ctx)
}

// chargeWall charges the inclusive wall time since start of evaluating
// p to p's operator kind — the "eval ns" column of EXPLAIN ANALYZE (two
// clock reads per operator per window; windows are µs-scale, so the
// cost is noise).
func chargeWall(ctx *ExecContext, p Plan, start time.Time) {
	if k := kindOf(p); k >= 0 {
		ctx.Stats.Ops[k].WallNS += int64(time.Since(start))
	}
}

// ExecutePlan is the engine's row-shaped top-level entry point: it
// picks the columnar path when the plan supports it and the
// tuple-at-a-time path otherwise, and returns tuples either way.
func ExecutePlan(ctx *ExecContext, p Plan) ([]relation.Tuple, error) {
	return execChild(ctx, p)
}

// ExecutePlanColumns is the columnar top-level entry point, the one the
// stream engine hands window results out through. A vectorizable root
// compacts its frame's selected rows (vecFrame.columns), so the result
// never becomes tuples; any other root (or the row path) transposes its
// row result once. An empty result has no columns, like Transpose of no
// rows. Counters and wall time are charged exactly as ExecutePlan
// charges them. The returned batch aliases no engine scratch, so later
// executions never change it, but it may alias the read-only input
// vectors of the window or ValuesPlan batch: the caller must not mutate
// it.
func ExecutePlanColumns(ctx *ExecContext, p Plan) (*relation.ColBatch, error) {
	defer chargeWall(ctx, p, time.Now())
	if !ctx.rowPath && canVectorize(p) {
		f, err := p.(vecPlan).executeVec(ctx)
		if err != nil {
			return nil, err
		}
		return f.columns(), nil
	}
	rows, err := p.Execute(ctx)
	if err != nil {
		return nil, err
	}
	if len(rows) == 0 {
		return noRows, nil
	}
	return relation.Transpose(rows), nil
}

// noRows is every empty result of ExecutePlanColumns. Most windows of a
// fleet query select nothing, and a zero-row, zero-column batch has no
// state a caller could change, so one shared instance keeps empty
// windows allocation-free.
var noRows = relation.NewColBatch(nil, 0)

// execVecChild runs a child already known (via canVectorize) to have a
// kernel.
func execVecChild(ctx *ExecContext, p Plan) (*vecFrame, error) {
	return p.(vecPlan).executeVec(ctx)
}

// ---- operator kernels ----

// readOnlyFrame is the frame of a read-only batch: every column is an
// input vector the result may alias.
func readOnlyFrame(cb *relation.ColBatch) *vecFrame {
	cols := make([]*relation.Vector, cb.Arity())
	ro := make([]bool, len(cols))
	for j := range cols {
		cols[j] = cb.Col(j)
		ro[j] = true
	}
	return &vecFrame{cols: cols, n: cb.Len(), ro: ro}
}

func (w *WindowSourcePlan) executeVec(ctx *ExecContext) (*vecFrame, error) {
	ctx.Stats.enter(OpWindowSource)
	cb := w.cols
	n := cb.Len()
	ctx.Stats.RowsScanned += int64(n)
	ctx.Stats.produced(OpWindowSource, n)
	ar := cb.Arity()
	if cap(w.vf.cols) < ar {
		w.vf.cols = make([]*relation.Vector, ar)
	}
	w.vf.cols = w.vf.cols[:ar]
	if cap(w.vf.ro) < ar {
		w.vf.ro = make([]bool, ar)
	}
	w.vf.ro = w.vf.ro[:ar]
	for j := 0; j < ar; j++ {
		w.vf.cols[j] = cb.Col(j)
		w.vf.ro[j] = true
	}
	w.vf.n = n
	w.vf.sel = nil
	return &w.vf, nil
}

// ReleaseScratch drops every reference p's nodes keep from their last
// execution: the bound window of each window source and the frames
// kept as columnar scratch. Window batches are views of their window
// operator's log, so a plan left holding one would keep the whole log
// array reachable until its next execution. The scratch buffers
// themselves stay for reuse. Like Bind, it must not race an execution.
func ReleaseScratch(p Plan) {
	switch n := p.(type) {
	case *WindowSourcePlan:
		n.rows, n.cols = nil, nil
		clear(n.vf.cols)
	case *FilterPlan:
		n.vf.cols = nil
	case *ProjectPlan:
		clear(n.vout)
		n.vf.cols = nil
	case *LimitPlan:
		n.vf.cols = nil
	}
	for _, c := range p.Children() {
		ReleaseScratch(c)
	}
}

func (v *ValuesPlan) executeVec(ctx *ExecContext) (*vecFrame, error) {
	ctx.Stats.enter(OpValues)
	if v.cb == nil {
		v.cb = relation.Transpose(v.rows)
	}
	ctx.Stats.RowsScanned += int64(len(v.rows))
	return readOnlyFrame(v.cb), nil
}

func (f *FilterPlan) executeVec(ctx *ExecContext) (*vecFrame, error) {
	ctx.Stats.enter(OpFilter)
	in, err := execVecChild(ctx, f.Input)
	if err != nil {
		return nil, err
	}
	if f.vpred == nil {
		f.vpred = compileVec(f.Pred, f.Input.Schema(), ctx.Funcs)
	}
	pv, err := f.vpred(in.cols, in.n, in.sel)
	if err != nil {
		return nil, err
	}
	f.keep = f.keep.Reset(in.n)
	keep := f.keep
	kept := 0
	if bs, nb, ok := boolAccess(pv); ok {
		// Typed predicate result: tight loop, no per-row dispatch.
		if in.sel == nil {
			for i := 0; i < in.n; i++ {
				if bs[i] && (nb == nil || !nb.Get(i)) {
					keep.Set(i)
					kept++
				}
			}
		} else {
			for i := in.sel.Next(0); i >= 0; i = in.sel.Next(i + 1) {
				if bs[i] && (nb == nil || !nb.Get(i)) {
					keep.Set(i)
					kept++
				}
			}
		}
	} else {
		eachSel(in.n, in.sel, func(i int) bool {
			if isNull, truthy := truthVals(pv, i); !isNull && truthy {
				keep.Set(i)
				kept++
			}
			return true
		})
	}
	ctx.Stats.produced(OpFilter, kept)
	f.vf = vecFrame{cols: in.cols, n: in.n, sel: keep, ro: in.ro}
	return &f.vf, nil
}

// boolAccess returns direct truth accessors for a typed bool column:
// the values and the null bitmap (nil = no nulls). ok is false for any
// other layout (generic, all-NULL, non-bool).
func boolAccess(v *relation.Vector) (vals []bool, nb *relation.Bitmap, ok bool) {
	if v.ElemType() != relation.TBool {
		return nil, nil, false
	}
	if v.HasNulls() {
		nb = v.Nulls()
	}
	return v.Bools(), nb, true
}

func (p *ProjectPlan) executeVec(ctx *ExecContext) (*vecFrame, error) {
	ctx.Stats.enter(OpProject)
	in, err := execVecChild(ctx, p.Input)
	if err != nil {
		return nil, err
	}
	if p.vexprs == nil {
		p.vexprs = compileVecAll(p.Exprs, p.Input.Schema(), ctx.Funcs)
	}
	if cap(p.vout) < len(p.vexprs) {
		p.vout = make([]*relation.Vector, len(p.vexprs))
	}
	out := p.vout[:len(p.vexprs)]
	for j, ve := range p.vexprs {
		out[j], err = ve(in.cols, in.n, in.sel)
		if err != nil {
			return nil, err
		}
	}
	// An output that is a bare column reference aliases its input
	// vector and stays read-only when that vector is.
	var ro []bool
	if in.ro != nil {
		if cap(p.vro) < len(out) {
			p.vro = make([]bool, len(out))
		}
		ro = p.vro[:len(out)]
		for j, c := range out {
			ro[j] = false
			for k, ic := range in.cols {
				if ic == c && in.ro[k] {
					ro[j] = true
					break
				}
			}
		}
	}
	ctx.Stats.produced(OpProject, in.count())
	p.vf = vecFrame{cols: out, n: in.n, sel: in.sel, ro: ro}
	return &p.vf, nil
}

func (l *LimitPlan) executeVec(ctx *ExecContext) (*vecFrame, error) {
	ctx.Stats.enter(OpLimit)
	in, err := execVecChild(ctx, l.Input)
	if err != nil {
		return nil, err
	}
	if in.count() <= l.N {
		return in, nil
	}
	l.keep = l.keep.Reset(in.n)
	keep := l.keep
	taken := 0
	eachSel(in.n, in.sel, func(i int) bool {
		keep.Set(i)
		taken++
		return taken < l.N
	})
	l.vf = vecFrame{cols: in.cols, n: in.n, sel: keep, ro: in.ro}
	return &l.vf, nil
}

func (j *LookupJoinPlan) executeVec(ctx *ExecContext) (*vecFrame, error) {
	ctx.Stats.enter(OpLookupJoin)
	left, err := execVecChild(ctx, j.Left)
	if err != nil {
		return nil, err
	}
	table, err := ctx.Catalog.Get(j.Table)
	if err != nil {
		return nil, err
	}
	if j.vleftKeys == nil {
		j.vleftKeys = compileVecAll(j.LeftKeys, j.Left.Schema(), ctx.Funcs)
	}
	if j.Residual != nil && j.residual == nil {
		if j.residual, err = Compile(j.Residual, j.schema, ctx.Funcs); err != nil {
			return nil, err
		}
	}

	// Evaluate the key expressions column-wise, dropping a row from the
	// probe set as soon as one of its keys is NULL — the row path skips
	// such rows and never evaluates their remaining keys.
	probeSel := left.sel
	var owned *relation.Bitmap
	kvecs := make([]*relation.Vector, len(j.vleftKeys))
	for ki, ke := range j.vleftKeys {
		kv, err := ke(left.cols, left.n, probeSel)
		if err != nil {
			return nil, err
		}
		kvecs[ki] = kv
		eachSel(left.n, probeSel, func(i int) bool {
			if kv.IsNull(i) {
				if owned == nil {
					if probeSel != nil {
						owned = probeSel.Clone()
					} else {
						owned = relation.NewBitmap(left.n)
						owned.SetAll()
					}
				}
				owned.Clear(i)
			}
			return true
		})
		if owned != nil {
			probeSel = owned
		}
	}

	probes := selCount(left.n, probeSel)
	var matches [][]relation.Tuple
	if probes > 0 {
		keys := make([][]relation.Value, left.n)
		eachSel(left.n, probeSel, func(i int) bool {
			vals := make([]relation.Value, len(kvecs))
			for k, kv := range kvecs {
				vals[k] = kv.Value(i)
			}
			keys[i] = vals
			return true
		})
		var usedIndex bool
		matches, usedIndex, err = table.LookupBatch(j.TableCols, keys)
		if err != nil {
			return nil, err
		}
		if usedIndex {
			ctx.Stats.IndexLookups += int64(probes)
		} else {
			ctx.Stats.RowsScanned += int64(table.Len()) * int64(probes)
		}
	}

	larity := len(left.cols)
	builders := make([]*relation.VectorBuilder, j.schema.Arity())
	for i := range builders {
		builders[i] = relation.NewVectorBuilder(probes)
	}
	total := 0
	var rerr error
	eachSel(left.n, probeSel, func(i int) bool {
		for _, rrow := range matches[i] {
			if j.residual != nil {
				joined := make(relation.Tuple, 0, j.schema.Arity())
				for c := 0; c < larity; c++ {
					joined = append(joined, left.cols[c].Value(i))
				}
				joined = append(joined, rrow...)
				v, err := j.residual(joined)
				if err != nil {
					rerr = err
					return false
				}
				if !v.Truthy() {
					continue
				}
				for c, val := range joined {
					builders[c].Append(val)
				}
			} else {
				for c := 0; c < larity; c++ {
					builders[c].Append(left.cols[c].Value(i))
				}
				for c, val := range rrow {
					builders[larity+c].Append(val)
				}
			}
			total++
		}
		return true
	})
	if rerr != nil {
		return nil, rerr
	}
	ctx.Stats.produced(OpLookupJoin, total)
	out := make([]*relation.Vector, len(builders))
	for i, b := range builders {
		out[i] = b.Build()
	}
	return &vecFrame{cols: out, n: total}, nil
}

// ---- vectorized expressions ----

// vecExpr evaluates an expression over the selected rows of a columnar
// input, returning a vector of length n defined at selected positions.
type vecExpr func(cols []*relation.Vector, n int, sel *relation.Bitmap) (*relation.Vector, error)

// compileVecAll compiles a list of expressions to columnar evaluators
// against one schema.
func compileVecAll(exprs []sql.Expr, schema relation.Schema, funcs *FuncRegistry) []vecExpr {
	out := make([]vecExpr, len(exprs))
	for i, e := range exprs {
		out[i] = compileVec(e, schema, funcs)
	}
	return out
}

// compileVec builds the columnar evaluator for e, reusing compileNode's
// constant folding: constant subtrees broadcast a single value, column
// references alias the input vector, comparison/arithmetic/logic nodes
// get typed loops, and every other node shape falls back to the compiled
// row closure applied per selected row (exact row semantics by
// construction).
func compileVec(e sql.Expr, schema relation.Schema, funcs *FuncRegistry) vecExpr {
	rowC, constant := compileNode(e, schema, funcs)
	if constant {
		v, err := rowC(nil)
		if err != nil {
			return vecErr(err)
		}
		return vecConst(v)
	}
	switch x := e.(type) {
	case *sql.ColumnRef:
		idx, err := schema.IndexOf(x.FullName())
		if err != nil {
			return vecErr(err)
		}
		return func(cols []*relation.Vector, n int, sel *relation.Bitmap) (*relation.Vector, error) {
			if n == 0 {
				// An empty batch may transpose to zero columns.
				return relation.NewGenericVector(nil), nil
			}
			return cols[idx], nil
		}
	case *sql.BinaryExpr:
		return compileVecBinary(x, schema, funcs, rowC)
	default:
		return vecRowFallback(rowC, schema.Arity())
	}
}

// vecErr defers a per-row error: it fires only when at least one row is
// selected, matching the row path over empty inputs.
func vecErr(err error) vecExpr {
	return func(cols []*relation.Vector, n int, sel *relation.Bitmap) (*relation.Vector, error) {
		if selCount(n, sel) == 0 {
			return relation.NewConstVector(relation.Null, n), nil
		}
		return nil, err
	}
}

func vecConst(v relation.Value) vecExpr {
	return func(cols []*relation.Vector, n int, sel *relation.Bitmap) (*relation.Vector, error) {
		return relation.NewConstVector(v, n), nil
	}
}

// vecRowFallback applies a row closure per selected row through a
// gathered scratch tuple. It is cold by construction (only node shapes
// without a typed kernel land here), so it allocates per call instead
// of carrying vecBufs scratch.
func vecRowFallback(rowC CompiledExpr, arity int) vecExpr {
	return func(cols []*relation.Vector, n int, sel *relation.Bitmap) (*relation.Vector, error) {
		vals := make([]relation.Value, n)
		scratch := make(relation.Tuple, arity)
		var err error
		eachSel(n, sel, func(i int) bool {
			for j, c := range cols {
				scratch[j] = c.Value(i)
			}
			vals[i], err = rowC(scratch)
			return err == nil
		})
		if err != nil {
			return nil, err
		}
		return relation.NewGenericVector(vals), nil
	}
}

func compileVecBinary(x *sql.BinaryExpr, schema relation.Schema, funcs *FuncRegistry, rowC CompiledExpr) vecExpr {
	switch x.Op {
	case "AND":
		return compileVecLogic(x, schema, funcs, true)
	case "OR":
		return compileVecLogic(x, schema, funcs, false)
	case "=", "<>", "<", "<=", ">", ">=":
		return compileVecCompare(x, schema, funcs, rowC)
	case "+", "-", "*", "/", "%":
		return compileVecArith(x, schema, funcs, rowC)
	default:
		// "||" and unknown operators take the row closure per row.
		return vecRowFallback(rowC, schema.Arity())
	}
}

// truthVals reads the SQL truth value of element i.
func truthVals(v *relation.Vector, i int) (isNull, truthy bool) {
	if v.IsNull(i) {
		return true, false
	}
	if v.ElemType() == relation.TBool {
		return false, v.Bools()[i]
	}
	return false, v.Value(i).Truthy()
}

// compileVecLogic compiles AND (and=true) / OR (and=false). The right
// operand is evaluated on exactly the rows where the row path would
// reach it — left not definitely false for AND, not definitely true for
// OR — so a failing right operand fires on the same row set.
func compileVecLogic(x *sql.BinaryExpr, schema relation.Schema, funcs *FuncRegistry, and bool) vecExpr {
	le := compileVec(x.Left, schema, funcs)
	re := compileVec(x.Right, schema, funcs)
	bufs := new(vecBufs)
	return func(cols []*relation.Vector, n int, sel *relation.Bitmap) (*relation.Vector, error) {
		lv, err := le(cols, n, sel)
		if err != nil {
			return nil, err
		}
		// Left truth state per row: short-circuit, pass-through, or null.
		// st is reused scratch, so every selected slot is stored
		// explicitly — including scut, which is no longer the zero value
		// of a fresh buffer.
		const scut, pass, isnull = uint8(0), uint8(1), uint8(2)
		st := bufs.stSlice(n)
		rsel := sel
		var owned *relation.Bitmap
		clearRow := func(i int) { // lazily narrow the right selection
			if owned == nil {
				if sel != nil {
					owned = sel.Clone()
				} else {
					owned = relation.NewBitmap(n)
					owned.SetAll()
				}
				rsel = owned
			}
			owned.Clear(i)
		}
		if lb, lnb, ok := boolAccess(lv); ok {
			if sel == nil {
				for i := 0; i < n; i++ {
					if lnb != nil && lnb.Get(i) {
						st[i] = isnull
					} else if lb[i] == and {
						st[i] = pass
					} else {
						st[i] = scut
						clearRow(i)
					}
				}
			} else {
				for i := sel.Next(0); i >= 0; i = sel.Next(i + 1) {
					if lnb != nil && lnb.Get(i) {
						st[i] = isnull
					} else if lb[i] == and {
						st[i] = pass
					} else {
						st[i] = scut
						clearRow(i)
					}
				}
			}
		} else {
			eachSel(n, sel, func(i int) bool {
				null, truthy := truthVals(lv, i)
				switch {
				case null:
					st[i] = isnull
				case truthy == and:
					st[i] = pass
				default:
					st[i] = scut
					clearRow(i)
				}
				return true
			})
		}
		rv, err := re(cols, n, rsel)
		if err != nil {
			return nil, err
		}
		out := bufs.boolSlice(n)
		var nulls *relation.Bitmap
		setNull := func(i int) {
			if nulls == nil {
				nulls = relation.NewBitmap(n)
			}
			nulls.Set(i)
		}
		if rb, rnb, ok := boolAccess(rv); ok {
			if sel == nil {
				for i := 0; i < n; i++ {
					if st[i] == scut {
						out[i] = !and
						continue
					}
					rNull := rnb != nil && rnb.Get(i)
					if !rNull && rb[i] != and {
						out[i] = !and
					} else if st[i] == isnull || rNull {
						setNull(i)
					} else {
						out[i] = and
					}
				}
			} else {
				for i := sel.Next(0); i >= 0; i = sel.Next(i + 1) {
					if st[i] == scut {
						out[i] = !and
						continue
					}
					rNull := rnb != nil && rnb.Get(i)
					if !rNull && rb[i] != and {
						out[i] = !and
					} else if st[i] == isnull || rNull {
						setNull(i)
					} else {
						out[i] = and
					}
				}
			}
		} else {
			eachSel(n, sel, func(i int) bool {
				if st[i] == scut {
					out[i] = !and
					return true
				}
				rNull, rTruthy := truthVals(rv, i)
				if !rNull && rTruthy != and {
					out[i] = !and
					return true
				}
				if st[i] == isnull || rNull {
					setNull(i)
					return true
				}
				out[i] = and
				return true
			})
		}
		return bufs.boolVec(out, nulls), nil
	}
}

// cmpAccept maps a comparison operator to its acceptance table, indexed
// by sign(cmp)+1: [accept-less, accept-equal, accept-greater]. A table
// lookup replaces a per-row closure call in the compare kernels.
func cmpAccept(op string) [3]bool {
	switch op {
	case "=":
		return [3]bool{false, true, false}
	case "<>":
		return [3]bool{true, false, true}
	case "<":
		return [3]bool{true, false, false}
	case "<=":
		return [3]bool{true, true, false}
	case ">":
		return [3]bool{false, false, true}
	default: // ">="
		return [3]bool{false, true, true}
	}
}

// cmpIdx maps an arbitrary comparison result to its acceptance-table
// index.
func cmpIdx(c int) int {
	switch {
	case c < 0:
		return 0
	case c > 0:
		return 2
	default:
		return 1
	}
}

func cmpStr(a, b string) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// numCompareAt returns the exact three-way comparison of row i of two
// typed numeric columns (relation.Compare's numeric order), or nil.
func numCompareAt(a, b *relation.Vector) func(i int) int {
	isInt := func(v *relation.Vector) bool { return v.ElemType() == relation.TInt || v.ElemType() == relation.TTime }
	isFloat := func(v *relation.Vector) bool { return v.ElemType() == relation.TFloat }
	switch {
	case isInt(a) && isInt(b):
		x, y := a.Ints(), b.Ints()
		return func(i int) int { return cmp.Compare(x[i], y[i]) }
	case isInt(a) && isFloat(b):
		x, y := a.Ints(), b.Floats()
		return func(i int) int { return relation.CompareIntFloat(x[i], y[i]) }
	case isFloat(a) && isInt(b):
		x, y := a.Floats(), b.Ints()
		return func(i int) int { return -relation.CompareIntFloat(y[i], x[i]) }
	case isFloat(a) && isFloat(b):
		x, y := a.Floats(), b.Floats()
		return func(i int) int { return relation.CompareFloat(x[i], y[i]) }
	}
	return nil
}

// floatAt returns a numeric accessor for a typed numeric column, or nil.
func floatAt(v *relation.Vector) func(i int) float64 {
	switch v.ElemType() {
	case relation.TInt, relation.TTime:
		ints := v.Ints()
		return func(i int) float64 { return float64(ints[i]) }
	case relation.TFloat:
		fs := v.Floats()
		return func(i int) float64 { return fs[i] }
	}
	return nil
}

func compileVecCompare(x *sql.BinaryExpr, schema relation.Schema, funcs *FuncRegistry, rowC CompiledExpr) vecExpr {
	test := cmpAccept(x.Op)
	lRow, lc := compileNode(x.Left, schema, funcs)
	rRow, rc := compileNode(x.Right, schema, funcs)
	if rc {
		s, err := rRow(nil)
		if err != nil {
			return vecRowFallback(rowC, schema.Arity())
		}
		le := compileVec(x.Left, schema, funcs)
		bufs := new(vecBufs)
		return func(cols []*relation.Vector, n int, sel *relation.Bitmap) (*relation.Vector, error) {
			v, err := le(cols, n, sel)
			if err != nil {
				return nil, err
			}
			return cmpVecScalar(bufs, test, v, s, false, n, sel)
		}
	}
	if lc {
		s, err := lRow(nil)
		if err != nil {
			return vecRowFallback(rowC, schema.Arity())
		}
		re := compileVec(x.Right, schema, funcs)
		bufs := new(vecBufs)
		return func(cols []*relation.Vector, n int, sel *relation.Bitmap) (*relation.Vector, error) {
			v, err := re(cols, n, sel)
			if err != nil {
				return nil, err
			}
			return cmpVecScalar(bufs, test, v, s, true, n, sel)
		}
	}
	le := compileVec(x.Left, schema, funcs)
	re := compileVec(x.Right, schema, funcs)
	bufs := new(vecBufs)
	return func(cols []*relation.Vector, n int, sel *relation.Bitmap) (*relation.Vector, error) {
		a, err := le(cols, n, sel)
		if err != nil {
			return nil, err
		}
		b, err := re(cols, n, sel)
		if err != nil {
			return nil, err
		}
		return cmpVecVec(bufs, test, a, b, n, sel)
	}
}

// cmpVecScalar compares a vector against a folded constant; scalarLeft
// says which side of the operator the constant sat on (it matters for
// ordering comparisons and error messages). The typed cases run direct
// loops: acceptance is a table lookup on the comparison sign, with the
// constant side folded into a flipped table instead of a per-row branch.
func cmpVecScalar(bufs *vecBufs, test [3]bool, v *relation.Vector, s relation.Value, scalarLeft bool, n int, sel *relation.Bitmap) (*relation.Vector, error) {
	if s.IsNull() {
		return relation.NewConstVector(relation.Null, n), nil
	}
	out := bufs.boolSlice(n)
	var nulls *relation.Bitmap
	setNull := func(i int) {
		if nulls == nil {
			nulls = relation.NewBitmap(n)
		}
		nulls.Set(i)
	}
	acc := test
	if scalarLeft {
		acc = [3]bool{test[2], test[1], test[0]}
	}
	et := v.ElemType()
	sf, sNum := s.AsFloat()
	var nb *relation.Bitmap
	if v.HasNulls() {
		nb = v.Nulls()
	}
	switch {
	case (et == relation.TInt || et == relation.TTime) && sNum:
		// Exact: an integer constant compares as one, a REAL one through
		// its pivot (relation.IntPivot).
		ints := v.Ints()
		pivot, r := s.Int, 0
		if s.Type == relation.TFloat {
			pivot, r = relation.IntPivot(s.Float)
		}
		cmpAt := func(i int) int {
			if c := cmp.Compare(ints[i], pivot); c != 0 {
				return c
			}
			return r
		}
		if sel == nil {
			for i := 0; i < n; i++ {
				if nb != nil && nb.Get(i) {
					setNull(i)
					continue
				}
				out[i] = acc[cmpAt(i)+1]
			}
		} else {
			for i := sel.Next(0); i >= 0; i = sel.Next(i + 1) {
				if nb != nil && nb.Get(i) {
					setNull(i)
					continue
				}
				out[i] = acc[cmpAt(i)+1]
			}
		}
	case et == relation.TFloat && s.Type != relation.TFloat && sNum:
		fs := v.Floats()
		eachSel(n, sel, func(i int) bool {
			if nb != nil && nb.Get(i) {
				setNull(i)
			} else {
				out[i] = acc[1-relation.CompareIntFloat(s.Int, fs[i])]
			}
			return true
		})
	case et == relation.TFloat && sNum:
		fs := v.Floats()
		if sel == nil {
			for i := 0; i < n; i++ {
				if nb != nil && nb.Get(i) {
					setNull(i)
					continue
				}
				out[i] = acc[relation.CompareFloat(fs[i], sf)+1]
			}
		} else {
			for i := sel.Next(0); i >= 0; i = sel.Next(i + 1) {
				if nb != nil && nb.Get(i) {
					setNull(i)
					continue
				}
				out[i] = acc[relation.CompareFloat(fs[i], sf)+1]
			}
		}
	case et == relation.TString && s.Type == relation.TString:
		ss := v.Strs()
		if sel == nil {
			for i := 0; i < n; i++ {
				if nb != nil && nb.Get(i) {
					setNull(i)
					continue
				}
				out[i] = acc[cmpStr(ss[i], s.Str)+1]
			}
		} else {
			for i := sel.Next(0); i >= 0; i = sel.Next(i + 1) {
				if nb != nil && nb.Get(i) {
					setNull(i)
					continue
				}
				out[i] = acc[cmpStr(ss[i], s.Str)+1]
			}
		}
	default:
		var err error
		eachSel(n, sel, func(i int) bool {
			a := v.Value(i)
			if a.IsNull() {
				setNull(i)
				return true
			}
			l, r := a, s
			if scalarLeft {
				l, r = s, a
			}
			c, ok := relation.Compare(l, r)
			if !ok {
				err = fmt.Errorf("engine: cannot compare %s and %s", l.Type, r.Type)
				return false
			}
			out[i] = test[cmpIdx(c)]
			return true
		})
		if err != nil {
			return nil, err
		}
	}
	return bufs.boolVec(out, nulls), nil
}

func cmpVecVec(bufs *vecBufs, test [3]bool, a, b *relation.Vector, n int, sel *relation.Bitmap) (*relation.Vector, error) {
	out := bufs.boolSlice(n)
	var nulls *relation.Bitmap
	setNull := func(i int) {
		if nulls == nil {
			nulls = relation.NewBitmap(n)
		}
		nulls.Set(i)
	}
	if cmpAt := numCompareAt(a, b); cmpAt != nil {
		eachSel(n, sel, func(i int) bool {
			if a.IsNull(i) || b.IsNull(i) {
				setNull(i)
				return true
			}
			out[i] = test[cmpAt(i)+1]
			return true
		})
		return bufs.boolVec(out, nulls), nil
	}
	var err error
	eachSel(n, sel, func(i int) bool {
		x, y := a.Value(i), b.Value(i)
		if x.IsNull() || y.IsNull() {
			setNull(i)
			return true
		}
		c, ok := relation.Compare(x, y)
		if !ok {
			err = fmt.Errorf("engine: cannot compare %s and %s", x.Type, y.Type)
			return false
		}
		out[i] = test[cmpIdx(c)]
		return true
	})
	if err != nil {
		return nil, err
	}
	return bufs.boolVec(out, nulls), nil
}

func compileVecArith(x *sql.BinaryExpr, schema relation.Schema, funcs *FuncRegistry, rowC CompiledExpr) vecExpr {
	op := x.Op[0]
	lRow, lc := compileNode(x.Left, schema, funcs)
	rRow, rc := compileNode(x.Right, schema, funcs)
	if rc {
		s, err := rRow(nil)
		if err != nil {
			return vecRowFallback(rowC, schema.Arity())
		}
		le := compileVec(x.Left, schema, funcs)
		return func(cols []*relation.Vector, n int, sel *relation.Bitmap) (*relation.Vector, error) {
			v, err := le(cols, n, sel)
			if err != nil {
				return nil, err
			}
			return arithVecScalar(op, v, s, false, n, sel)
		}
	}
	if lc {
		s, err := lRow(nil)
		if err != nil {
			return vecRowFallback(rowC, schema.Arity())
		}
		re := compileVec(x.Right, schema, funcs)
		return func(cols []*relation.Vector, n int, sel *relation.Bitmap) (*relation.Vector, error) {
			v, err := re(cols, n, sel)
			if err != nil {
				return nil, err
			}
			return arithVecScalar(op, v, s, true, n, sel)
		}
	}
	le := compileVec(x.Left, schema, funcs)
	re := compileVec(x.Right, schema, funcs)
	return func(cols []*relation.Vector, n int, sel *relation.Bitmap) (*relation.Vector, error) {
		a, err := le(cols, n, sel)
		if err != nil {
			return nil, err
		}
		b, err := re(cols, n, sel)
		if err != nil {
			return nil, err
		}
		return arithVecVec(op, a, b, n, sel)
	}
}

// arithVecScalar mirrors relation.Arith element-wise: int⊕int stays
// integral for + - *, every other numeric mix produces floats, and the
// leftover shapes (int/int division's per-row result type, modulo,
// non-numerics) run Arith itself per row.
func arithVecScalar(op byte, v *relation.Vector, s relation.Value, scalarLeft bool, n int, sel *relation.Bitmap) (*relation.Vector, error) {
	if s.IsNull() {
		return relation.NewConstVector(relation.Null, n), nil
	}
	et := v.ElemType()
	if et == relation.TInt && s.Type == relation.TInt && (op == '+' || op == '-' || op == '*') {
		ints := v.Ints()
		hasN := v.HasNulls()
		res := make([]int64, n)
		var nulls *relation.Bitmap
		eachSel(n, sel, func(i int) bool {
			if hasN && v.IsNull(i) {
				if nulls == nil {
					nulls = relation.NewBitmap(n)
				}
				nulls.Set(i)
				return true
			}
			a, b := ints[i], s.Int
			if scalarLeft {
				a, b = b, a
			}
			switch op {
			case '+':
				res[i] = a + b
			case '-':
				res[i] = a - b
			default:
				res[i] = a * b
			}
			return true
		})
		return relation.NewIntVector(res, nulls), nil
	}
	af := floatAt(v)
	sf, sNum := s.AsFloat()
	intInt := et == relation.TInt && s.Type == relation.TInt
	if af != nil && sNum && op != '%' && !(op == '/' && intInt) {
		hasN := v.HasNulls()
		res := make([]float64, n)
		var nulls *relation.Bitmap
		var err error
		eachSel(n, sel, func(i int) bool {
			if hasN && v.IsNull(i) {
				if nulls == nil {
					nulls = relation.NewBitmap(n)
				}
				nulls.Set(i)
				return true
			}
			a, b := af(i), sf
			if scalarLeft {
				a, b = b, a
			}
			switch op {
			case '+':
				res[i] = a + b
			case '-':
				res[i] = a - b
			case '*':
				res[i] = a * b
			default:
				if b == 0 {
					err = fmt.Errorf("relation: division by zero")
					return false
				}
				res[i] = a / b
			}
			return true
		})
		if err != nil {
			return nil, err
		}
		return relation.NewFloatVector(res, nulls), nil
	}
	vals := make([]relation.Value, n)
	var err error
	eachSel(n, sel, func(i int) bool {
		a, b := v.Value(i), s
		if scalarLeft {
			a, b = b, a
		}
		vals[i], err = relation.Arith(op, a, b)
		return err == nil
	})
	if err != nil {
		return nil, err
	}
	return relation.NewGenericVector(vals), nil
}

func arithVecVec(op byte, a, b *relation.Vector, n int, sel *relation.Bitmap) (*relation.Vector, error) {
	at, bt := a.ElemType(), b.ElemType()
	if at == relation.TInt && bt == relation.TInt && (op == '+' || op == '-' || op == '*') {
		ai, bi := a.Ints(), b.Ints()
		res := make([]int64, n)
		var nulls *relation.Bitmap
		eachSel(n, sel, func(i int) bool {
			if a.IsNull(i) || b.IsNull(i) {
				if nulls == nil {
					nulls = relation.NewBitmap(n)
				}
				nulls.Set(i)
				return true
			}
			switch op {
			case '+':
				res[i] = ai[i] + bi[i]
			case '-':
				res[i] = ai[i] - bi[i]
			default:
				res[i] = ai[i] * bi[i]
			}
			return true
		})
		return relation.NewIntVector(res, nulls), nil
	}
	intInt := at == relation.TInt && bt == relation.TInt
	if af, bf := floatAt(a), floatAt(b); af != nil && bf != nil && op != '%' && !(op == '/' && intInt) {
		res := make([]float64, n)
		var nulls *relation.Bitmap
		var err error
		eachSel(n, sel, func(i int) bool {
			if a.IsNull(i) || b.IsNull(i) {
				if nulls == nil {
					nulls = relation.NewBitmap(n)
				}
				nulls.Set(i)
				return true
			}
			x, y := af(i), bf(i)
			switch op {
			case '+':
				res[i] = x + y
			case '-':
				res[i] = x - y
			case '*':
				res[i] = x * y
			default:
				if y == 0 {
					err = fmt.Errorf("relation: division by zero")
					return false
				}
				res[i] = x / y
			}
			return true
		})
		if err != nil {
			return nil, err
		}
		return relation.NewFloatVector(res, nulls), nil
	}
	vals := make([]relation.Value, n)
	var err error
	eachSel(n, sel, func(i int) bool {
		vals[i], err = relation.Arith(op, a.Value(i), b.Value(i))
		return err == nil
	})
	if err != nil {
		return nil, err
	}
	return relation.NewGenericVector(vals), nil
}
