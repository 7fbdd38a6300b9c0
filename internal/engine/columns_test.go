package engine

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/relation"
	"repro/internal/sql"
)

// typedKey renders a tuple with every value's type tag, so TTime vs
// TInt (or a NULL vs an empty string) can never compare equal.
func typedKey(t relation.Tuple) string {
	parts := make([]string, len(t))
	for i, v := range t {
		parts[i] = fmt.Sprintf("%d:%s", v.Type, v.String())
	}
	return strings.Join(parts, "|")
}

func sameTypedMultiset(a, b []relation.Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	ka := make([]string, len(a))
	kb := make([]string, len(b))
	for i := range a {
		ka[i], kb[i] = typedKey(a[i]), typedKey(b[i])
	}
	sort.Strings(ka)
	sort.Strings(kb)
	for i := range ka {
		if ka[i] != kb[i] {
			return false
		}
	}
	return true
}

// counters strips the wall-time column, the only ExecStats field that
// is not deterministic.
func counters(s ExecStats) ExecStats {
	for k := range s.Ops {
		s.Ops[k].WallNS = 0
	}
	return s
}

// wallKinds lists the operator kinds charged wall time.
func wallKinds(s ExecStats) []OpKind {
	var ks []OpKind
	for k := range s.Ops {
		if s.Ops[k].WallNS > 0 {
			ks = append(ks, OpKind(k))
		}
	}
	return ks
}

// diffColumns is the differential oracle for the columnar result
// boundary; diffExec calls it, so every seeded plan and batch of the
// vectorized differentials (empty batches, all-NULL and mixed/generic
// columns, TTime columns, full, partial and zero selections) runs
// through it. It executes one bound plan through every entry point and
// mode, with ExecutePlan on the row path as the oracle. ExecutePlanColumns must
// return the oracle's rows (as a typed multiset, through the exact
// ColBatch.Rows round trip) in both modes, count exactly what the
// oracle counts — every ExecStats counter, per-op Calls and RowsOut
// included — and charge wall time to the operator kinds ExecutePlan
// charges in the same mode.
func diffColumns(t *testing.T, cat *relation.Catalog, plan Plan, label string) {
	t.Helper()
	oracleCtx := rowPathContext(cat)
	oracle, oracleErr := ExecutePlan(oracleCtx, plan)
	for _, vec := range []bool{false, true} {
		refCtx := NewExecContext(cat)
		refCtx.rowPath = !vec
		_, refErr := ExecutePlan(refCtx, plan)
		ctx := NewExecContext(cat)
		ctx.rowPath = !vec
		cb, err := ExecutePlanColumns(ctx, plan)
		if (err == nil) != (oracleErr == nil) || (refErr == nil) != (oracleErr == nil) {
			t.Fatalf("%s vec=%v: error disagreement: oracle=%v rows=%v columns=%v", label, vec, oracleErr, refErr, err)
		}
		if err != nil {
			continue
		}
		got := cb.Rows()
		if cb.Len() != len(oracle) || !sameTypedMultiset(oracle, got) {
			t.Fatalf("%s vec=%v: results differ\nrow:     %v\ncolumns: %v (len %d)\nplan:\n%s",
				label, vec, oracle, got, cb.Len(), Explain(plan))
		}
		if counters(ctx.Stats) != counters(refCtx.Stats) {
			t.Fatalf("%s vec=%v: counters differ\nExecutePlan:        %+v\nExecutePlanColumns: %+v",
				label, vec, counters(refCtx.Stats), counters(ctx.Stats))
		}
		if fmt.Sprint(wallKinds(ctx.Stats)) != fmt.Sprint(wallKinds(refCtx.Stats)) {
			t.Fatalf("%s vec=%v: wall time charged to %v, ExecutePlan charges %v",
				label, vec, wallKinds(ctx.Stats), wallKinds(refCtx.Stats))
		}
		if counters(ctx.Stats) != counters(oracleCtx.Stats) {
			t.Fatalf("%s vec=%v: counters differ from the row-path oracle\noracle:             %+v\nExecutePlanColumns: %+v",
				label, vec, counters(oracleCtx.Stats), counters(ctx.Stats))
		}
	}
}

// TestVectorizedColumnsOwnedByCaller pins the ownership contract: a
// batch returned by ExecutePlanColumns stays intact after the same plan
// executes again over a different window (the kernels overwrite their
// scratch on every execution), with and without a selection. Without a
// selection, a column that is a read-only input vector of the window is
// handed out as is, not cloned: SELECT * shares every input vector, and
// a bare column next to computed ones shares its own.
func TestVectorizedColumnsOwnedByCaller(t *testing.T) {
	cat := dimCatalog(t, false)
	schema := windowSchema()
	cases := []struct {
		query string
		// shared lists, per output column, the input column it must
		// alias (-1 = must not alias any input vector).
		shared []int
	}{
		{"SELECT w.sid, w.val > 10, w.ts FROM w WHERE w.ok", nil},
		{"SELECT w.sid, w.val + 1, w.val > 10 FROM w", []int{0, -1, -1}},
		{"SELECT * FROM w", []int{0, 1, 2, 3, 4, 5}},
	}
	for _, c := range cases {
		wsp := NewWindowSourcePlan("w", schema.Qualify("w"))
		plan, err := Build(sql.MustParse(c.query), func(tr *sql.TableRef) (Plan, error) {
			if tr.Table == "w" {
				return wsp, nil
			}
			return CatalogResolver(cat)(tr)
		})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(5))
		ctx := NewExecContext(cat)
		var kept []*relation.ColBatch
		var want [][]relation.Tuple
		for b := 0; b < 8; b++ {
			rows := randomBatch(rng)
			in := relation.Transpose(rows)
			wsp.Bind(rows, in)
			cb, err := ExecutePlanColumns(ctx, plan)
			if err != nil {
				t.Fatal(err)
			}
			if c.shared != nil && cb.Len() > 0 {
				for j, src := range c.shared {
					aliased := -1
					for k := 0; k < in.Arity(); k++ {
						if cb.Col(j) == in.Col(k) {
							aliased = k
						}
					}
					if aliased != src {
						t.Fatalf("%s: batch %d column %d aliases input column %d, want %d", c.query, b, j, aliased, src)
					}
				}
			}
			kept = append(kept, cb)
			want = append(want, cb.Rows())
		}
		for i, cb := range kept {
			if got := cb.Rows(); !sameTypedMultiset(got, want[i]) {
				t.Fatalf("%s: batch %d changed after later executions:\nthen: %v\nnow:  %v", c.query, i, want[i], got)
			}
		}
	}
}

// TestValuesPlanSetRowsServesNewRows checks that re-pointing a
// ValuesPlan drops the columns cached for its old rows: after SetRows,
// the vectorized path returns the new rows, as the row path does.
func TestValuesPlanSetRowsServesNewRows(t *testing.T) {
	schema := relation.NewSchema(relation.Col("v.x", relation.TInt))
	v := NewValuesPlan("v", schema, []relation.Tuple{{relation.Int(1)}, {relation.Int(2)}})
	plan, err := Build(sql.MustParse("SELECT v.x FROM v WHERE v.x > 0"), func(*sql.TableRef) (Plan, error) { return v, nil })
	if err != nil {
		t.Fatal(err)
	}
	ctx := NewExecContext(relation.NewCatalog())
	if _, err := ExecutePlanColumns(ctx, plan); err != nil {
		t.Fatal(err)
	}
	next := []relation.Tuple{{relation.Int(7)}, {relation.Int(8)}, {relation.Int(9)}}
	v.SetRows(next)
	cb, err := ExecutePlanColumns(ctx, plan)
	if err != nil {
		t.Fatal(err)
	}
	if got := cb.Rows(); !sameTypedMultiset(got, next) {
		t.Fatalf("vectorized path after SetRows = %v, want %v", got, next)
	}
}

// TestReleaseScratchDropsWindowReferences checks that after
// ReleaseScratch no node of an executed plan still references the bound
// window: not the source's rows and columns, nor any frame or projected
// output kept as scratch.
func TestReleaseScratchDropsWindowReferences(t *testing.T) {
	cat := dimCatalog(t, false)
	wsp := NewWindowSourcePlan("w", windowSchema().Qualify("w"))
	plan, err := Build(sql.MustParse("SELECT w.sid, w.val + 1 FROM w WHERE w.ok LIMIT 3"), func(tr *sql.TableRef) (Plan, error) {
		if tr.Table == "w" {
			return wsp, nil
		}
		return CatalogResolver(cat)(tr)
	})
	if err != nil {
		t.Fatal(err)
	}
	rows := randomBatch(rand.New(rand.NewSource(3)))
	for len(rows) < 8 {
		rows = append(rows, rows...)
	}
	wsp.Bind(rows, relation.Transpose(rows))
	if _, err := ExecutePlanColumns(NewExecContext(cat), plan); err != nil {
		t.Fatal(err)
	}
	ReleaseScratch(plan)
	var check func(Plan)
	check = func(p Plan) {
		switch n := p.(type) {
		case *WindowSourcePlan:
			if n.rows != nil || n.cols != nil {
				t.Error("window source still bound")
			}
			for _, c := range n.vf.cols {
				if c != nil {
					t.Error("window source frame still holds a column")
				}
			}
		case *FilterPlan:
			if n.vf.cols != nil {
				t.Error("filter frame still holds columns")
			}
		case *ProjectPlan:
			if n.vf.cols != nil {
				t.Error("project frame still holds columns")
			}
			for _, c := range n.vout {
				if c != nil {
					t.Error("project output scratch still holds a column")
				}
			}
		case *LimitPlan:
			if n.vf.cols != nil {
				t.Error("limit frame still holds columns")
			}
		}
		for _, c := range p.Children() {
			check(c)
		}
	}
	check(plan)
}
