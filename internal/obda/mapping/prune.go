package mapping

import (
	"strings"

	"repro/internal/relation"
	"repro/internal/sql"
)

// This file implements the constraint-driven fleet pruning of Hovland
// et al., "OBDA Constraints for Effective Query Answering"
// (arXiv:1605.04263), adapted to GAV unfolding over a mixed
// static/stream catalog: declared exact-predicate and FK/inclusion
// constraints let unfolding drop provably-empty union branches and
// redundant joins before they ever execute.

// restrictExact narrows each atom's candidate mappings to the
// exact-predicate ones when any exist: an exact mapping's source holds
// all instances of the predicate, so under set semantics the branches
// the other mappings would generate are redundant. The number of
// combinations this removes is charged to ConstraintPruned.
func restrictExact(candidates [][]Mapping, stats *UnfoldStats) {
	full, restricted := 1, 1
	for i, ms := range candidates {
		var exact []Mapping
		for _, m := range ms {
			if m.Exact {
				exact = append(exact, m)
			}
		}
		full = capMul(full, len(ms))
		if len(exact) > 0 && len(exact) < len(ms) {
			candidates[i] = exact
		}
		restricted = capMul(restricted, len(candidates[i]))
	}
	stats.ConstraintPruned += full - restricted
}

// capMul multiplies with a saturation cap so pathological candidate
// sets cannot overflow the counter.
func capMul(a, b int) int {
	const lim = 1 << 30
	if a > 0 && b > lim/a {
		return lim
	}
	return a * b
}

// provablyEmpty reports whether a combination's WHERE clause can be
// shown to reject every row: either two conjuncts pin one column to
// different constants, or an FK column tuple is pinned to constants
// that the referenced static table does not contain (probed against
// the catalog at registration time).
func provablyEmpty(stmt *sql.SelectStmt, combo []Mapping, aliases []string, cat *relation.Catalog) bool {
	consts := map[string]relation.Value{} // "alias.col" -> pinned constant
	for _, c := range conjunctsOf(stmt.Where) {
		col, lit, ok := columnConstant(c)
		if !ok {
			continue
		}
		key := strings.ToLower(col.Table) + "." + strings.ToLower(col.Name)
		if prev, seen := consts[key]; seen {
			if cmp, comparable := relation.Compare(prev, lit); !comparable || cmp != 0 {
				return true // col = a AND col = b with a ≠ b
			}
			continue
		}
		consts[key] = lit
	}
	for i, m := range combo {
		if FKProvesEmpty(m, consts, strings.ToLower(aliases[i])+".", cat) {
			return true
		}
	}
	return false
}

// FKProvesEmpty reports whether the rows of m whose columns are pinned
// to constants are provably none: some declared foreign key of m has
// every column pinned (consts maps prefix plus the lower-cased column
// name to its constant), and the referenced table holds no row with
// those values. Every source row's FK tuple appears in the referenced
// table, so a pinned tuple absent from it selects nothing. The probe
// reads the hash index Constraints.Checked creates on the referenced
// columns. A nil catalog proves nothing.
func FKProvesEmpty(m Mapping, consts map[string]relation.Value, prefix string, cat *relation.Catalog) bool {
	if cat == nil {
		return false
	}
	var vb [4]relation.Value
	for _, fk := range m.FKs {
		vals := vb[:0]
		covered := true
		for _, col := range fk.Columns {
			v, ok := consts[prefix+strings.ToLower(col)]
			if !ok {
				covered = false
				break
			}
			vals = append(vals, v)
		}
		if !covered {
			continue
		}
		ref, err := cat.Get(fk.RefTable)
		if err != nil {
			continue
		}
		if found, err := ref.Exists(fk.RefColumns, vals); err == nil && !found {
			return true
		}
	}
	return false
}

// columnConstant matches `alias.col = literal` (either orientation).
func columnConstant(e sql.Expr) (*sql.ColumnRef, relation.Value, bool) {
	be, ok := e.(*sql.BinaryExpr)
	if !ok || be.Op != "=" {
		return nil, relation.Null, false
	}
	l, r := be.Left, be.Right
	if _, isLit := l.(*sql.Literal); isLit {
		l, r = r, l
	}
	col, okCol := l.(*sql.ColumnRef)
	lit, okLit := r.(*sql.Literal)
	if !okCol || !okLit {
		return nil, relation.Null, false
	}
	return col, lit.Value, true
}

// eliminateFKJoins removes joins a declared foreign key proves
// redundant: when alias c (child) is equated with alias p (parent) on
// the child's full FK, the parent's source is the FK's referenced
// table, the referenced columns are the parent source's unique key, the
// parent carries no extra filter, and every other reference to the
// parent uses only the referenced columns — then the join pairs each
// child row with exactly one guaranteed-present parent row, so the
// parent is dropped and its column references rewritten to the child's
// FK columns. Returns the number of joins removed; the statement is
// modified in place.
func eliminateFKJoins(stmt *sql.SelectStmt, combo []Mapping, aliases []string) int {
	removed := 0
	for {
		merged := false
		for ci := 0; ci < len(stmt.From) && !merged; ci++ {
			for _, fk := range combo[ci].FKs {
				pi := fkParentIndex(stmt, combo, aliases, ci, fk)
				if pi < 0 {
					continue
				}
				// Rewrite parent.RefColumns[k] -> child.Columns[k], drop
				// the parent's FROM item, clean trivial equalities.
				repl := make(map[string]sql.ColumnRef, len(fk.Columns))
				for k := range fk.Columns {
					repl[strings.ToLower(fk.RefColumns[k])] = sql.ColumnRef{Table: aliases[ci], Name: fk.Columns[k]}
				}
				renameColRefsInStmt(stmt, aliases[pi], repl)
				stmt.From = append(stmt.From[:pi], stmt.From[pi+1:]...)
				combo = append(combo[:pi:pi], combo[pi+1:]...)
				aliases = append(aliases[:pi:pi], aliases[pi+1:]...)
				stmt.Where = pruneTrivialEqualities(stmt.Where)
				removed++
				merged = true
				break
			}
		}
		if !merged {
			return removed
		}
	}
}

// fkParentIndex finds a FROM alias the child's fk provably makes
// redundant, or -1.
func fkParentIndex(stmt *sql.SelectStmt, combo []Mapping, aliases []string, ci int, fk ForeignKey) int {
	for pi := range stmt.From {
		if pi == ci {
			continue
		}
		p := combo[pi]
		if !strings.EqualFold(p.Source.Table, fk.RefTable) || p.Source.IsStream {
			continue
		}
		// Uniqueness: the referenced columns must be the parent's key,
		// so the join multiplies cardinality by exactly one.
		if !equalStrings(p.KeyColumns, fk.RefColumns) {
			continue
		}
		// The parent must not filter (a WHERE could reject child rows the
		// inclusion guarantees exist in the unfiltered table).
		if p.Source.Where != nil {
			continue
		}
		// The join must equate the full FK.
		if !fkEquated(stmt.Where, aliases[ci], aliases[pi], fk) {
			continue
		}
		// Everything else said about the parent must be sayable about the
		// child: only referenced columns may appear.
		if !refsOnlyColumns(stmt, aliases[pi], fk.RefColumns) {
			continue
		}
		return pi
	}
	return -1
}

// fkEquated reports whether the predicate contains
// child.Columns[k] = parent.RefColumns[k] (either orientation) for
// every k.
func fkEquated(where sql.Expr, childAlias, parentAlias string, fk ForeignKey) bool {
	conj := conjunctsOf(where)
	for k := range fk.Columns {
		found := false
		for _, c := range conj {
			be, ok := c.(*sql.BinaryExpr)
			if !ok || be.Op != "=" {
				continue
			}
			l, lok := be.Left.(*sql.ColumnRef)
			r, rok := be.Right.(*sql.ColumnRef)
			if !lok || !rok {
				continue
			}
			if matchCol(l, childAlias, fk.Columns[k]) && matchCol(r, parentAlias, fk.RefColumns[k]) ||
				matchCol(r, childAlias, fk.Columns[k]) && matchCol(l, parentAlias, fk.RefColumns[k]) {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

func matchCol(c *sql.ColumnRef, alias, name string) bool {
	return strings.EqualFold(c.Table, alias) && strings.EqualFold(c.Name, name)
}

// refsOnlyColumns reports whether every reference to alias in the
// statement's items and WHERE uses one of the allowed columns.
func refsOnlyColumns(stmt *sql.SelectStmt, alias string, allowed []string) bool {
	ok := true
	check := func(c *sql.ColumnRef) {
		if !strings.EqualFold(c.Table, alias) {
			return
		}
		for _, a := range allowed {
			if strings.EqualFold(c.Name, a) {
				return
			}
		}
		ok = false
	}
	for _, it := range stmt.Items {
		walkColRefs(it.Expr, check)
	}
	walkColRefs(stmt.Where, check)
	return ok
}

func walkColRefs(e sql.Expr, fn func(*sql.ColumnRef)) {
	switch x := e.(type) {
	case nil:
	case *sql.ColumnRef:
		fn(x)
	case *sql.BinaryExpr:
		walkColRefs(x.Left, fn)
		walkColRefs(x.Right, fn)
	case *sql.UnaryExpr:
		walkColRefs(x.Expr, fn)
	case *sql.IsNullExpr:
		walkColRefs(x.Expr, fn)
	case *sql.FuncExpr:
		for _, a := range x.Args {
			walkColRefs(a, fn)
		}
	case *sql.InExpr:
		walkColRefs(x.Expr, fn)
		for _, i := range x.List {
			walkColRefs(i, fn)
		}
	case *sql.CaseExpr:
		for _, w := range x.Whens {
			walkColRefs(w.Cond, fn)
			walkColRefs(w.Then, fn)
		}
		walkColRefs(x.Else, fn)
	}
}

// renameColRefsInStmt rewrites references alias.<key of repl> to the
// replacement column in the statement's items and WHERE clause.
func renameColRefsInStmt(stmt *sql.SelectStmt, alias string, repl map[string]sql.ColumnRef) {
	for i := range stmt.Items {
		stmt.Items[i].Expr = renameColRefs(stmt.Items[i].Expr, alias, repl)
	}
	stmt.Where = renameColRefs(stmt.Where, alias, repl)
}

func renameColRefs(e sql.Expr, alias string, repl map[string]sql.ColumnRef) sql.Expr {
	switch x := e.(type) {
	case nil:
		return nil
	case *sql.ColumnRef:
		if strings.EqualFold(x.Table, alias) {
			if to, ok := repl[strings.ToLower(x.Name)]; ok {
				out := to
				return &out
			}
		}
		return x
	case *sql.BinaryExpr:
		return sql.Bin(x.Op, renameColRefs(x.Left, alias, repl), renameColRefs(x.Right, alias, repl))
	case *sql.UnaryExpr:
		return &sql.UnaryExpr{Op: x.Op, Expr: renameColRefs(x.Expr, alias, repl)}
	case *sql.IsNullExpr:
		return &sql.IsNullExpr{Expr: renameColRefs(x.Expr, alias, repl), Negate: x.Negate}
	case *sql.FuncExpr:
		args := make([]sql.Expr, len(x.Args))
		for i, a := range x.Args {
			args[i] = renameColRefs(a, alias, repl)
		}
		return &sql.FuncExpr{Name: x.Name, Args: args, Star: x.Star, Distinct: x.Distinct}
	case *sql.InExpr:
		out := &sql.InExpr{Expr: renameColRefs(x.Expr, alias, repl), Negate: x.Negate}
		for _, i := range x.List {
			out.List = append(out.List, renameColRefs(i, alias, repl))
		}
		return out
	case *sql.CaseExpr:
		out := &sql.CaseExpr{Else: renameColRefs(x.Else, alias, repl)}
		for _, w := range x.Whens {
			out.Whens = append(out.Whens, sql.CaseWhen{
				Cond: renameColRefs(w.Cond, alias, repl),
				Then: renameColRefs(w.Then, alias, repl),
			})
		}
		return out
	default:
		return e
	}
}
