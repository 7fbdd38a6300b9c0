package engine

import (
	"fmt"
	"strings"

	"repro/internal/relation"
	"repro/internal/sql"
)

// IndexScanPlan reads the rows of a base table matching constant
// equality predicates through Table.Lookup, so a hash index on exactly
// those columns serves the scan in O(matches) instead of O(table). The
// stats-driven optimizer emits it in place of Filter(Scan) when the
// predicate is estimated selective enough to beat a full scan; like
// LookupJoinPlan, a missing index degrades to a scan with the same
// result (the stream engine builds the index with the plan).
type IndexScanPlan struct {
	Table string
	Alias string
	Cols  []string         // bare column names in the base table
	Vals  []relation.Value // constants matched against Cols
	// Residual holds the predicate conjuncts the lookup does not cover,
	// applied to each matching row (references qualified columns).
	Residual sql.Expr
	schema   relation.Schema

	residual CompiledExpr // compiled on first Execute
	compiled bool
}

// NewIndexScanPlan builds an index scan; tableSchema is the base
// table's schema, bare or qualified (a scan's), re-qualified by alias.
func NewIndexScanPlan(table, alias string, tableSchema relation.Schema,
	cols []string, vals []relation.Value, residual sql.Expr) *IndexScanPlan {
	name := alias
	if name == "" {
		name = table
	}
	return &IndexScanPlan{
		Table: table, Alias: name, Cols: cols, Vals: vals, Residual: residual,
		schema: tableSchema.Qualify(name),
	}
}

// Schema implements Plan.
func (s *IndexScanPlan) Schema() relation.Schema { return s.schema }

// Children implements Plan.
func (s *IndexScanPlan) Children() []Plan { return nil }

func (s *IndexScanPlan) String() string {
	preds := make([]string, len(s.Cols))
	for i := range s.Cols {
		preds[i] = s.Alias + "." + s.Cols[i] + "=" + s.Vals[i].String()
	}
	out := fmt.Sprintf("IndexScan(%s, %s)", s.Table, strings.Join(preds, ", "))
	if s.Residual != nil {
		out += " residual=" + s.Residual.String()
	}
	return out
}

// Execute implements Plan.
func (s *IndexScanPlan) Execute(ctx *ExecContext) ([]relation.Tuple, error) {
	ctx.Stats.enter(OpIndexScan)
	t, err := ctx.Catalog.Get(s.Table)
	if err != nil {
		return nil, err
	}
	if !s.compiled {
		if s.Residual != nil {
			if s.residual, err = Compile(s.Residual, s.schema, ctx.Funcs); err != nil {
				return nil, err
			}
		}
		s.compiled = true
	}
	matches, usedIndex, err := t.Lookup(s.Cols, s.Vals)
	if err != nil {
		return nil, err
	}
	if usedIndex {
		ctx.Stats.IndexLookups++
	} else {
		ctx.Stats.RowsScanned += int64(t.Len())
	}
	out := matches
	if s.residual != nil {
		out = nil
		for _, row := range matches {
			v, err := s.residual(row)
			if err != nil {
				return nil, err
			}
			if v.Truthy() {
				out = append(out, row)
			}
		}
	}
	ctx.Stats.produced(OpIndexScan, len(out))
	return out, nil
}
