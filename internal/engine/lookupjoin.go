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
// schema, bare or qualified (a scan's), re-qualified by alias.
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

// Lookup is one index a plan probes: a base table and the columns of
// the hash index that serves its lookup join or index scan.
type Lookup struct {
	Table string
	Cols  []string
}

// Adapt readies a built plan for execution over many windows: every
// inner hash join whose build side is a plain scan of a base table
// becomes a lookup join against that table, at any depth (derived
// tables included), so each window probes the table's index instead of
// rebuilding a hash table; given statistics, OptimizeWithStats follows.
// It returns the plan and the lookup patterns it probes, which the
// caller indexes before the first window (the paper's adaptive
// main-memory indexing with a threshold of one lookup). p is not
// modified, and its leaves are the returned plan's.
func Adapt(p Plan, st *StatsStore) (Plan, []Lookup) {
	p, _ = rewrite(p, toLookupJoin)
	p = OptimizeWithStats(p, st)
	var lookups []Lookup
	var walk func(p Plan)
	walk = func(p Plan) {
		switch n := p.(type) {
		case *LookupJoinPlan:
			lookups = append(lookups, Lookup{n.Table, n.TableCols})
		case *IndexScanPlan:
			lookups = append(lookups, Lookup{n.Table, n.Cols})
		}
		for _, c := range p.Children() {
			walk(c)
		}
	}
	walk(p)
	return p, lookups
}

// toLookupJoin is Adapt's rule: it turns an inner hash join into a
// lookup join when either side is a plain scan keyed by bare columns of
// its table (the right side first).
func toLookupJoin(p Plan) (Plan, bool) {
	j, ok := p.(*HashJoinPlan)
	if !ok || j.LeftOuter {
		return p, false
	}
	if lj, ok := lookupInto(j.Left, j.Right, j.LeftKeys, j.RightKeys, j.Residual); ok {
		return lj, true
	}
	// Probing from the right flips the column order, and the schema
	// with it; consumers resolve columns by name, and lookupInto checks
	// the residual still resolves.
	if lj, ok := lookupInto(j.Right, j.Left, j.RightKeys, j.LeftKeys, j.Residual); ok {
		return lj, true
	}
	return p, false
}

// lookupInto builds a lookup join of probe into build when build is a
// plain scan and every build key a bare column of it.
func lookupInto(probe, build Plan, probeKeys, buildKeys []sql.Expr, residual sql.Expr) (Plan, bool) {
	scan, ok := build.(*ScanPlan)
	if !ok || len(buildKeys) == 0 {
		return nil, false
	}
	cols := make([]string, len(buildKeys))
	for i, k := range buildKeys {
		cr, ok := k.(*sql.ColumnRef)
		if !ok || cr.Table != "" && !strings.EqualFold(cr.Table, scan.Alias) {
			return nil, false
		}
		cols[i] = cr.Name
	}
	lj := NewLookupJoinPlan(probe, scan.Table, scan.Alias, scan.Schema(), probeKeys, cols, residual)
	if residual != nil && !ResolvesAgainst(residual, lj.Schema()) {
		return nil, false
	}
	return lj, true
}
