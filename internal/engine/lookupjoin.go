package engine

import (
	"fmt"
	"strings"

	"repro/internal/relation"
	"repro/internal/sql"
)

// LookupJoinPlan joins a (typically small) left input against a base
// table by point lookups on the table's columns. When the table has a
// hash index on exactly those columns each probe is O(1); otherwise every
// probe scans. ExaStream's adaptive indexing builds that index when it
// builds the plan.
type LookupJoinPlan struct {
	Left      Plan
	Table     string
	Alias     string
	LeftKeys  []sql.Expr // evaluated against left rows
	TableCols []string   // bare column names in the base table
	Residual  sql.Expr
	schema    relation.Schema

	// Compiled on first Execute.
	leftKeys []CompiledExpr
	residual CompiledExpr
	compiled bool

	vleftKeys []vecExpr // columnar key kernels, compiled on first executeVec
}

// NewLookupJoinPlan builds the plan; tableSchema is the base table's
// (unqualified) schema.
func NewLookupJoinPlan(left Plan, table, alias string, tableSchema relation.Schema,
	leftKeys []sql.Expr, tableCols []string, residual sql.Expr) *LookupJoinPlan {
	name := alias
	if name == "" {
		name = table
	}
	return &LookupJoinPlan{
		Left: left, Table: table, Alias: name,
		LeftKeys: leftKeys, TableCols: tableCols, Residual: residual,
		schema: left.Schema().Concat(tableSchema.Qualify(name)),
	}
}

// Schema implements Plan.
func (j *LookupJoinPlan) Schema() relation.Schema { return j.schema }

// Children implements Plan.
func (j *LookupJoinPlan) Children() []Plan { return []Plan{j.Left} }

func (j *LookupJoinPlan) String() string {
	keys := make([]string, len(j.LeftKeys))
	for i := range j.LeftKeys {
		keys[i] = j.LeftKeys[i].String() + "=" + j.Alias + "." + j.TableCols[i]
	}
	return fmt.Sprintf("LookupJoin(%s, %s)", j.Table, strings.Join(keys, ", "))
}

// Execute implements Plan.
func (j *LookupJoinPlan) Execute(ctx *ExecContext) ([]relation.Tuple, error) {
	ctx.Stats.enter(OpLookupJoin)
	leftRows, err := execChild(ctx, j.Left)
	if err != nil {
		return nil, err
	}
	table, err := ctx.Catalog.Get(j.Table)
	if err != nil {
		return nil, err
	}
	if !j.compiled {
		j.leftKeys = compileAll(j.LeftKeys, j.Left.Schema(), ctx.Funcs)
		if j.Residual != nil {
			if j.residual, err = Compile(j.Residual, j.schema, ctx.Funcs); err != nil {
				return nil, err
			}
		}
		j.compiled = true
	}
	var out []relation.Tuple
	vals := make([]relation.Value, len(j.leftKeys))
	for _, lrow := range leftRows {
		skip := false
		for i, k := range j.leftKeys {
			v, err := k(lrow)
			if err != nil {
				return nil, err
			}
			if v.IsNull() {
				skip = true
				break
			}
			vals[i] = v
		}
		if skip {
			continue
		}
		matches, usedIndex, err := table.Lookup(j.TableCols, vals)
		if err != nil {
			return nil, err
		}
		if usedIndex {
			ctx.Stats.IndexLookups++
		} else {
			ctx.Stats.RowsScanned += int64(table.Len())
		}
		for _, rrow := range matches {
			joined := lrow.Concat(rrow)
			if j.residual != nil {
				v, err := j.residual(joined)
				if err != nil {
					return nil, err
				}
				if !v.Truthy() {
					continue
				}
			}
			out = append(out, joined)
		}
	}
	ctx.Stats.produced(OpLookupJoin, len(out))
	return out, nil
}
