package mapping

import (
	"strings"

	"repro/internal/relation"
	"repro/internal/sql"
)

// This file implements the constraint-driven fleet pruning of Hovland
// et al., "OBDA Constraints for Effective Query Answering"
// (arXiv:1605.04263), adapted to GAV unfolding over a mixed
// static/stream catalog: declared FK/inclusion constraints let
// unfolding drop provably-empty union branches before they ever
// execute.

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
