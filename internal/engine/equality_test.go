package engine

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/relation"
	"repro/internal/sql"
)

// equalityValues is a seeded value set drawn where equality encodings go
// wrong: INTEGER/REAL/TIMESTAMP values that compare equal across types,
// -0.0 and 0.0, two NaN payloads, integers above 2^53, strings holding
// the old 0x1f separator or bytes that look like a length prefix or a
// type tag, booleans, and NULL.
func equalityValues(rng *rand.Rand) []relation.Value {
	const big = 1 << 53
	vals := []relation.Value{
		relation.Null, relation.Null,
		relation.Int(1), relation.Float(1), relation.Time(1),
		relation.Int(0), relation.Float(0), relation.Float(math.Copysign(0, -1)), relation.Time(0),
		relation.Float(math.NaN()), relation.Float(math.Float64frombits(0x7ff8000000000001)),
		relation.Float(math.Inf(1)), relation.Float(math.Inf(-1)),
		relation.Int(big), relation.Int(big + 1), relation.Float(big), relation.Int(-big - 1),
		relation.Int(big + 2), relation.Float(big + 2), relation.Time(big + 1), relation.Float(-big - 2),
		relation.Int(math.MaxInt64), relation.Int(math.MinInt64), relation.Float(1 << 63), relation.Float(-(1 << 63)),
		relation.String_(""), relation.String_("1"), relation.String_("a"),
		relation.String_("a\x1f3b"), relation.String_("a\x1f"),
		relation.String_("\x01a"), relation.String_("\x02\x01a"),
		relation.Bool_(true), relation.Bool_(false),
	}
	atoms := []string{"a", "b", "\x1f", "\x01", "\x03", "1"}
	for i := 0; i < 40; i++ {
		n := int64(rng.Intn(5) - 2)
		switch rng.Intn(5) {
		case 0:
			vals = append(vals, relation.Int(n))
		case 1:
			vals = append(vals, relation.Float(float64(n)/2))
		case 2:
			vals = append(vals, relation.Time(n))
		case 3:
			var sb strings.Builder
			for k := rng.Intn(4); k > 0; k-- {
				sb.WriteString(atoms[rng.Intn(len(atoms))])
			}
			vals = append(vals, relation.String_(sb.String()))
		default:
			vals = append(vals, relation.Bool_(rng.Intn(2) == 0))
		}
	}
	rng.Shuffle(len(vals), func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
	return vals
}

// comparable reports whether SQL `=` accepts the pair of column types
// without a type error.
func comparable(a, b relation.Type) bool {
	num := func(t relation.Type) bool {
		return t == relation.TInt || t == relation.TFloat || t == relation.TTime
	}
	return a == b || num(a) && num(b)
}

// TestEqualityKeyAgreesWithEqual is the key-agreement differential: every
// structure that implements SQL `=` by hashing (table indexes, the hash
// join, GROUP BY, DISTINCT, COUNT(DISTINCT)) must find exactly what
// relation.Equal finds, as must the scans and the nested-loop join.
func TestEqualityKeyAgreesWithEqual(t *testing.T) {
	vals := equalityValues(rand.New(rand.NewSource(26)))

	// One table per column type: (id, x) with every value of that type
	// plus a NULL row.
	types := []relation.Type{relation.TInt, relation.TFloat, relation.TTime, relation.TString, relation.TBool}
	cat := relation.NewCatalog()
	tables := make([]*relation.Table, len(types))
	for i, typ := range types {
		tb, err := cat.Create(fmt.Sprintf("t%d", i), relation.NewSchema(
			relation.Col("id", relation.TInt), relation.Col("x", typ)))
		if err != nil {
			t.Fatal(err)
		}
		tb.MustInsert(relation.Tuple{relation.Int(0), relation.Null})
		for id, v := range vals {
			if v.Type == typ {
				tb.MustInsert(relation.Tuple{relation.Int(int64(id + 1)), v})
			}
		}
		tables[i] = tb
	}
	ids := func(rows []relation.Tuple) string {
		out := make([]int64, len(rows))
		for i, r := range rows {
			out[i] = r[0].Int
		}
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		return fmt.Sprint(out)
	}
	want := func(tb *relation.Table, v relation.Value) string {
		var rows []relation.Tuple
		for _, r := range tb.Rows() {
			if relation.Equal(r[1], v) {
				rows = append(rows, r)
			}
		}
		return ids(rows)
	}

	t.Run("lookup", func(t *testing.T) {
		probes := append([]relation.Value(nil), vals...)
		for _, tb := range tables {
			for _, indexed := range []bool{false, true} {
				if indexed {
					if err := tb.CreateIndex("x"); err != nil {
						t.Fatal(err)
					}
				}
				keys := make([][]relation.Value, len(probes)+1) // the last slot stays nil
				for i, v := range probes {
					rows, used, err := tb.Lookup([]string{"x"}, []relation.Value{v})
					if err != nil {
						t.Fatal(err)
					}
					if used != indexed {
						t.Fatalf("%s: Lookup used index = %v, want %v", tb.Name(), used, indexed)
					}
					if got, w := ids(rows), want(tb, v); got != w {
						t.Errorf("%s (indexed=%v): Lookup(x = %s) = %s, Equal finds %s", tb.Name(), indexed, v, got, w)
					}
					keys[i] = []relation.Value{v}
				}
				batch, _, err := tb.LookupBatch([]string{"x"}, keys)
				if err != nil {
					t.Fatal(err)
				}
				for i, v := range probes {
					if got, w := ids(batch[i]), want(tb, v); got != w {
						t.Errorf("%s (indexed=%v): LookupBatch(x = %s) = %s, Equal finds %s", tb.Name(), indexed, v, got, w)
					}
				}
				if batch[len(probes)] != nil {
					t.Errorf("%s: LookupBatch matched a nil probe", tb.Name())
				}
			}
		}
	})

	t.Run("joins", func(t *testing.T) {
		for i, a := range tables {
			for j, b := range tables {
				var pairs []string
				for _, ar := range a.Rows() {
					for _, br := range b.Rows() {
						if relation.Equal(ar[1], br[1]) {
							pairs = append(pairs, fmt.Sprintf("(%d, %d)", ar[0].Int, br[0].Int))
						}
					}
				}
				sort.Strings(pairs)
				wantPairs := strings.Join(pairs, "\n")
				stmt := sql.MustParse(fmt.Sprintf("SELECT a.id, b.id FROM t%d AS a JOIN t%d AS b ON a.x = b.x", i, j))
				plan, err := Build(stmt, CatalogResolver(cat))
				if err != nil {
					t.Fatal(err)
				}
				proj := plan.(*ProjectPlan)
				hj, ok := proj.Input.(*HashJoinPlan)
				if !ok {
					t.Fatalf("want a hash join:\n%s", Explain(plan))
				}
				rows, err := ExecutePlan(NewExecContext(cat), plan)
				if err != nil {
					t.Fatal(err)
				}
				if got := strings.Join(rowStrings(rows), "\n"); got != wantPairs {
					t.Errorf("%s JOIN %s: hash join found\n%s\nEqual finds\n%s", types[i], types[j], got, wantPairs)
				}
				if !comparable(types[i], types[j]) {
					continue // `=` is a type error there; the hash join just finds nothing
				}
				on := &sql.BinaryExpr{Op: "=", Left: hj.LeftKeys[0], Right: hj.RightKeys[0]}
				nested := NewProjectPlan(NewNestedLoopJoinPlan(hj.Left, hj.Right, on, false), proj.Exprs, proj.Names)
				rows, err = ExecutePlan(NewExecContext(cat), nested)
				if err != nil {
					t.Fatal(err)
				}
				if got := strings.Join(rowStrings(rows), "\n"); got != wantPairs {
					t.Errorf("%s JOIN %s: nested-loop join found\n%s\nEqual finds\n%s", types[i], types[j], got, wantPairs)
				}
			}
		}
	})

	t.Run("grouping", func(t *testing.T) {
		// The classes of `=` over the values, with NULLs in one class of
		// their own (GROUP BY and DISTINCT put NULLs together).
		same := func(a, b relation.Value) bool {
			return a.IsNull() && b.IsNull() || relation.Equal(a, b)
		}
		var reps []relation.Value
		for _, v := range vals {
			found := false
			for _, r := range reps {
				if same(r, v) {
					found = true
					break
				}
			}
			if !found {
				reps = append(reps, v)
			}
		}
		classes, nonNull := len(reps), 0
		for _, r := range reps {
			if !r.IsNull() {
				nonNull++
			}
		}
		rows := make([]relation.Tuple, len(vals))
		for i, v := range vals {
			rows[i] = relation.Tuple{v}
		}
		run := func(query string) []relation.Tuple {
			resolver := func(*sql.TableRef) (Plan, error) {
				return NewValuesPlan("v", relation.NewSchema(relation.Col("v.x", relation.TNull)), rows), nil
			}
			plan, err := Build(sql.MustParse(query), resolver)
			if err != nil {
				t.Fatal(err)
			}
			out, err := ExecutePlan(NewExecContext(cat), plan)
			if err != nil {
				t.Fatal(err)
			}
			return out
		}
		groups := run("SELECT v.x, COUNT(*) FROM v GROUP BY v.x")
		if len(groups) != classes {
			t.Errorf("GROUP BY made %d groups, `=` has %d classes: %v", len(groups), classes, groups)
		}
		// 2^53 and 2^53+1 are distinct integers, though one float64.
		const big = 1 << 53
		bigGroups := 0
		for _, g := range groups {
			if relation.Equal(g[0], relation.Int(big)) || relation.Equal(g[0], relation.Int(big+1)) {
				bigGroups++
			}
		}
		if bigGroups != 2 {
			t.Errorf("GROUP BY put 2^53 and 2^53+1 in %d groups, want 2: %v", bigGroups, groups)
		}
		for _, g := range groups {
			n := int64(0)
			for _, v := range vals {
				if same(g[0], v) {
					n++
				}
			}
			if g[1].Int != n {
				t.Errorf("GROUP BY: group %s counts %d rows, `=` finds %d", g[0], g[1].Int, n)
			}
		}
		if got := run("SELECT DISTINCT v.x FROM v"); len(got) != classes {
			t.Errorf("DISTINCT kept %d rows, `=` has %d classes: %v", len(got), classes, got)
		}
		if got := run("SELECT COUNT(DISTINCT v.x) FROM v"); got[0][0].Int != int64(nonNull) {
			t.Errorf("COUNT(DISTINCT) = %s, `=` has %d non-NULL classes", got[0][0], nonNull)
		}
	})
}
