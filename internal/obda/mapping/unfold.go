package mapping

import (
	"fmt"

	"repro/internal/obda/cq"
	"repro/internal/rdf"
	"repro/internal/relation"
	"repro/internal/sql"
)

// UnfoldOptions tunes the unfolding stage.
type UnfoldOptions struct {
	// MaxCombinations caps the per-CQ mapping combinations; 0 = 4096.
	MaxCombinations int
	// Catalog supplies the static relations that FK emptiness probes run
	// against at registration time; nil disables the probes.
	Catalog *relation.Catalog
}

// UnfoldStats reports what unfolding did — the size of the paper's
// "fleet" of low-level data queries.
type UnfoldStats struct {
	CQs              int // disjuncts unfolded
	Combinations     int // mapping combinations considered
	Pruned           int // combinations pruned (incompatible templates / constants)
	FleetSize        int // SQL queries generated
	SelfJoinsRemoved int
	UnmappedAtoms    int // CQ disjuncts dropped because an atom had no mapping
	// ConstraintPruned counts union branches dropped as provably empty:
	// contradictory constants and FK emptiness probes.
	ConstraintPruned int
}

// Unfold translates an enriched UCQ into a fleet of SQL(+) SELECT
// statements via the mapping set, one statement per surviving
// (disjunct, mapping-combination) pair. Callers union the fleet or
// register its members individually with the DSMS.
//
// Each statement projects one column per answer variable (named after the
// variable); the value is the rendered IRI template (or the raw column
// for data values).
//
// Unfolding applies the set's declared constraints: joins of one
// source with itself on its key are merged (selfjoin.go), and branches
// with contradictory constant equalities or FK-implied emptiness are
// dropped (prune.go). It trusts them as declared; Constraints.Checked
// hands out a set whose static constraints the catalog has been
// checked against.
func Unfold(u cq.UCQ, set *Set, opts UnfoldOptions) ([]*sql.SelectStmt, UnfoldStats, error) {
	maxComb := opts.MaxCombinations
	if maxComb <= 0 {
		maxComb = 4096
	}
	var stats UnfoldStats
	var fleet []*sql.SelectStmt

	for _, q := range u {
		stats.CQs++
		candidates := make([][]Mapping, len(q.Body))
		unmapped := false
		for i, atom := range q.Body {
			ms := set.ForPred(atom.Pred)
			if len(ms) == 0 {
				unmapped = true
				break
			}
			candidates[i] = ms
		}
		if unmapped {
			stats.UnmappedAtoms++
			continue
		}
		// Enumerate the cartesian product of per-atom mapping choices.
		combo := make([]Mapping, len(q.Body))
		var enumerate func(i int) error
		enumerate = func(i int) error {
			if stats.Combinations >= maxComb {
				return fmt.Errorf("mapping: unfolding exceeded %d combinations", maxComb)
			}
			if i == len(q.Body) {
				stats.Combinations++
				beforeConstraint := stats.ConstraintPruned
				stmt, ok, err := unfoldCombination(q, combo, opts.Catalog, &stats)
				if err != nil {
					return err
				}
				switch {
				case ok:
					fleet = append(fleet, stmt)
				case stats.ConstraintPruned == beforeConstraint:
					stats.Pruned++
				}
				return nil
			}
			for _, m := range candidates[i] {
				combo[i] = m
				if err := enumerate(i + 1); err != nil {
					return err
				}
			}
			return nil
		}
		if err := enumerate(0); err != nil {
			return nil, stats, err
		}
	}
	stats.FleetSize = len(fleet)
	return fleet, stats, nil
}

// occurrence records where a query variable surfaces in the combination.
type occurrence struct {
	alias string
	tmpl  Template
	data  bool // raw value (data property object)
}

func unfoldCombination(q cq.CQ, combo []Mapping, cat *relation.Catalog, stats *UnfoldStats) (*sql.SelectStmt, bool, error) {
	aliases := make([]string, len(combo))
	for i := range combo {
		aliases[i] = fmt.Sprintf("m%d", i)
	}

	occs := map[string][]occurrence{} // var -> occurrences
	var vars []string                 // variables in order of first occurrence
	var conds []sql.Expr

	addArg := func(arg cq.Arg, alias string, tmpl Template, isData bool) bool {
		if arg.IsVar {
			if _, seen := occs[arg.Var]; !seen {
				vars = append(vars, arg.Var)
			}
			occs[arg.Var] = append(occs[arg.Var], occurrence{alias, tmpl, isData})
			return true
		}
		// Constant: invert the template into per-column conditions.
		val := arg.Const.Value
		if isData || arg.Const.IsLiteral() {
			if !tmpl.IsRawColumn() {
				return false
			}
			conds = append(conds, sql.Bin("=",
				&sql.ColumnRef{Table: alias, Name: tmpl.Columns[0]},
				literalFor(arg.Const)))
			return true
		}
		segs, ok := tmpl.Invert(val)
		if !ok {
			return false
		}
		for i, seg := range segs {
			conds = append(conds, sql.Bin("=",
				&sql.ColumnRef{Table: alias, Name: tmpl.Columns[i]},
				segmentLiteral(seg)))
		}
		return true
	}

	for i, atom := range q.Body {
		m := combo[i]
		// Shape check: class atoms need class mappings and vice versa.
		if atom.IsClass() != m.IsClass {
			return nil, false, nil
		}
		if !addArg(atom.Args[0], aliases[i], m.Subject, false) {
			return nil, false, nil
		}
		if !atom.IsClass() {
			if !addArg(atom.Args[1], aliases[i], m.Object, m.ObjectIsData) {
				return nil, false, nil
			}
		}
		// Source-level filters, alias-qualified.
		if m.Source.Where != nil {
			conds = append(conds, QualifyExpr(m.Source.Where, aliases[i]))
		}
	}

	// Filter side-conditions.
	for _, f := range q.Filters {
		cond, ok := filterCond(f, occs)
		if !ok {
			return nil, false, nil // filter unsatisfiable for this combination
		}
		conds = append(conds, cond)
	}

	// Join conditions from shared variables, in order of first
	// occurrence so the unfolded SQL is the same on every run.
	for _, v := range vars {
		os := occs[v]
		for i := 1; i < len(os); i++ {
			a, b := os[0], os[i]
			if a.data != b.data && !(a.tmpl.IsRawColumn() && b.tmpl.IsRawColumn()) {
				// An IRI can never equal a raw data value.
				return nil, false, nil
			}
			if a.data || a.tmpl.IsRawColumn() && b.tmpl.IsRawColumn() {
				conds = append(conds, sql.Bin("=",
					&sql.ColumnRef{Table: a.alias, Name: a.tmpl.Columns[0]},
					&sql.ColumnRef{Table: b.alias, Name: b.tmpl.Columns[0]}))
				continue
			}
			if !a.tmpl.Compatible(b.tmpl) {
				return nil, false, nil
			}
			for c := range a.tmpl.Columns {
				conds = append(conds, sql.Bin("=",
					&sql.ColumnRef{Table: a.alias, Name: a.tmpl.Columns[c]},
					&sql.ColumnRef{Table: b.alias, Name: b.tmpl.Columns[c]}))
			}
		}
	}

	stmt := sql.NewSelect()
	for i, m := range combo {
		stmt.From = append(stmt.From, &sql.TableRef{
			Table:    m.Source.Table,
			IsStream: m.Source.IsStream,
			Alias:    aliases[i],
		})
	}

	// Projection: one output per head variable.
	for _, h := range q.Head {
		os, ok := occs[h]
		if !ok {
			return nil, false, fmt.Errorf("mapping: head variable %s not bound by any atom", h)
		}
		o := os[0]
		stmt.Items = append(stmt.Items, sql.SelectItem{
			Expr:  renderTemplate(o.tmpl, o.alias),
			Alias: h,
		})
	}
	if len(stmt.Items) == 0 {
		// Boolean query: project a constant.
		stmt.Items = append(stmt.Items, sql.SelectItem{Expr: sql.Lit(relation.Int(1)), Alias: "one"})
	}
	stmt.Where = sql.AndAll(conds...)

	stats.SelfJoinsRemoved += eliminateSelfJoins(stmt, combo, aliases)
	// Re-derive the (mapping, alias) pairing: self-join elimination
	// drops FROM items without updating our local slices.
	curCombo, curAliases := alignCombo(stmt, combo, aliases)
	if provablyEmpty(stmt, curCombo, curAliases, cat) {
		stats.ConstraintPruned++
		return nil, false, nil
	}
	return stmt, true, nil
}

// alignCombo pairs the statement's surviving FROM aliases back with
// their mappings.
func alignCombo(stmt *sql.SelectStmt, combo []Mapping, aliases []string) ([]Mapping, []string) {
	outM := make([]Mapping, 0, len(stmt.From))
	outA := make([]string, 0, len(stmt.From))
	for _, tr := range stmt.From {
		for i, a := range aliases {
			if a == tr.Alias {
				outM = append(outM, combo[i])
				outA = append(outA, a)
				break
			}
		}
	}
	return outM, outA
}

// filterCond translates one CQ filter into a SQL condition over the
// combination's aliases. Ground filters compare two literals; variable
// filters compare the variable's first occurrence (raw column for data
// values, rendered template for IRIs — the latter only for = and !=).
func filterCond(f cq.Filter, occs map[string][]occurrence) (sql.Expr, bool) {
	op := f.Op
	if op == "!=" {
		op = "<>"
	}
	if !f.Arg.IsVar {
		return sql.Bin(op, literalFor(f.Arg.Const), literalFor(f.Value)), true
	}
	os, ok := occs[f.Arg.Var]
	if !ok {
		return nil, false
	}
	o := os[0]
	if o.data || o.tmpl.IsRawColumn() {
		return sql.Bin(op,
			&sql.ColumnRef{Table: o.alias, Name: o.tmpl.Columns[0]},
			literalFor(f.Value)), true
	}
	if op != "=" && op != "<>" {
		return nil, false // ordering over IRIs is not meaningful
	}
	return sql.Bin(op, renderTemplate(o.tmpl, o.alias), literalFor(f.Value)), true
}

func literalFor(t rdf.Term) sql.Expr {
	switch t.Datatype {
	case rdf.XSDInteger:
		if v, err := t.Integer(); err == nil {
			return sql.Lit(relation.Int(v))
		}
	case rdf.XSDDouble, rdf.XSDDecimal:
		if v, err := t.Float(); err == nil {
			return sql.Lit(relation.Float(v))
		}
	case rdf.XSDBoolean:
		if v, err := t.Bool(); err == nil {
			return sql.Lit(relation.Bool_(v))
		}
	}
	return stringLit(t.Value)
}
