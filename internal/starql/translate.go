package starql

import (
	"fmt"
	"maps"
	"sort"
	"strings"
	"sync"

	"repro/internal/engine"
	"repro/internal/obda/cq"
	"repro/internal/obda/mapping"
	"repro/internal/obda/rewrite"
	"repro/internal/ontology"
	"repro/internal/rdf"
	"repro/internal/relation"
	"repro/internal/sql"
	"repro/internal/stream"
	"repro/internal/telemetry"
)

// Translation is the output of the STARQL2SQL(+) translator: the
// enrichment and unfolding artefacts plus everything the runtime needs
// to register the query.
type Translation struct {
	Query *Query

	// StaticCQ is the WHERE clause as a conjunctive query.
	StaticCQ cq.CQ
	// Enriched is the UCQ after PerfectRef enrichment (stage i).
	Enriched cq.UCQ
	// StaticFleet is the unfolded SQL fleet for the WHERE bindings
	// (stage ii); its union evaluates to the bindings.
	StaticFleet []*sql.SelectStmt
	// StreamFleet is the fleet of low-level window queries the high-level
	// query replaces: one SQL(+) query per (binding, stream attribute,
	// stream mapping). This is what the paper's engineers wrote by hand.
	// Translate leaves it empty; EvalBindings fills it for the bindings
	// it computes.
	StreamFleet []*sql.SelectStmt

	// WindowSpec/Pulse for the runtime.
	Window stream.WindowSpec
	Pulse  *stream.Pulse

	RewriteStats rewrite.Stats
	UnfoldStats  mapping.UnfoldStats

	// mappings is the checked mapping set the translation unfolded
	// under; EvalBindings expands and prunes the stream fleet with it.
	mappings *mapping.Set
}

// Options tunes the translator.
type Options struct {
	Rewrite rewrite.Options
	Unfold  mapping.UnfoldOptions
	// Trace, when non-nil, receives "rewrite" and "unfold" spans with
	// the stage statistics as attributes.
	Trace *telemetry.Trace
}

// Translator holds the deployment assets: ontology, mappings, and the
// static catalog the unfolded queries run on.
type Translator struct {
	TBox     *ontology.TBox
	Mappings *mapping.Set
	Catalog  *relation.Catalog
	// Metrics, when non-nil, receives per-translation instruments
	// (starql.rewrite.*, starql.unfold.*) and
	// mapping.constraint_violations.
	Metrics *telemetry.Registry
	// Recorder, when non-nil, receives one constraint_violation event
	// per declared constraint a check finds the catalog violating.
	Recorder *telemetry.Recorder

	constraints *mapping.Constraints // checks Mappings against Catalog

	mu      sync.Mutex
	streams map[string]relation.Schema // declared stream tuples by lower-case name; replaced, never edited
}

// DeclareStream records a stream's tuple schema: the stream fleet types
// each key constant by its column's declared type.
func (tr *Translator) DeclareStream(sc stream.Schema) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	streams := maps.Clone(tr.streams)
	if streams == nil {
		streams = map[string]relation.Schema{}
	}
	streams[strings.ToLower(sc.Name)] = sc.Tuple
	tr.streams = streams
}

// NewTranslator bundles the deployment assets.
func NewTranslator(tbox *ontology.TBox, set *mapping.Set, cat *relation.Catalog) *Translator {
	return &Translator{TBox: tbox, Mappings: set, Catalog: cat, constraints: mapping.NewConstraints(set, cat)}
}

// BGPToCQ converts WHERE triple patterns (and FILTER conditions) to a
// conjunctive query whose answer variables are all pattern variables.
func BGPToCQ(patterns []TriplePattern, head []string, filters ...FilterPattern) (cq.CQ, error) {
	var body []cq.Atom
	fresh := 0
	for _, t := range patterns {
		if t.P.IsVar() {
			return cq.CQ{}, fmt.Errorf("starql: variable predicates are not supported in WHERE")
		}
		pred := t.P.Term.Value
		switch {
		case t.TypeAtom:
			body = append(body, cq.ClassAtom(pred, toArg(t.S)))
		case t.NoObject:
			fresh++
			body = append(body, cq.PropAtom(pred, toArg(t.S), cq.V(fmt.Sprintf("_o%d", fresh))))
		default:
			body = append(body, cq.PropAtom(pred, toArg(t.S), toArg(t.O)))
		}
	}
	q := cq.New(head, body...)
	for _, f := range filters {
		if f.Value.IsVar() {
			return cq.CQ{}, fmt.Errorf("starql: FILTER right-hand side must be a constant")
		}
		q.Filters = append(q.Filters, cq.Filter{Arg: toArg(f.Arg), Op: f.Op, Value: f.Value.Term})
	}
	if err := q.Validate(); err != nil {
		return cq.CQ{}, err
	}
	return q, nil
}

// toArg converts a pattern node to a CQ argument.
func toArg(n Node) cq.Arg {
	if n.IsVar() {
		return cq.V(n.Var)
	}
	return cq.C(n.Term)
}

// Translate enriches the WHERE clause, unfolds it into the static SQL
// fleet, and extracts the window and pulse. It executes nothing:
// EvalBindings runs the static fleet and expands the stream fleet.
func (tr *Translator) Translate(q *Query, opts Options) (*Translation, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	out := &Translation{Query: q, mappings: tr.checkedMappings()}

	staticCQ, err := BGPToCQ(q.Where, q.WhereVars(), q.WhereFilters...)
	if err != nil {
		return nil, err
	}
	out.StaticCQ = staticCQ

	rspan := opts.Trace.StartSpan("rewrite")
	enriched, rstats, err := rewrite.PerfectRef(staticCQ, tr.TBox, opts.Rewrite)
	if err != nil {
		rspan.SetAttr("error", err.Error())
		rspan.End()
		return nil, err
	}
	out.Enriched = enriched
	out.RewriteStats = rstats
	rspan.SetAttr("generated", rstats.Generated).
		SetAttr("result", rstats.Result).
		SetAttr("atom_steps", rstats.AtomSteps).
		SetAttr("reduce_steps", rstats.ReduceSteps)
	rspan.End()

	uopts := opts.Unfold
	if uopts.Catalog == nil {
		uopts.Catalog = tr.Catalog
	}
	uspan := opts.Trace.StartSpan("unfold")
	fleet, ustats, err := mapping.Unfold(enriched, out.mappings, uopts)
	if err != nil {
		uspan.SetAttr("error", err.Error())
		uspan.End()
		return nil, err
	}
	out.StaticFleet = fleet
	out.UnfoldStats = ustats
	uspan.SetAttr("cqs", ustats.CQs).
		SetAttr("combinations", ustats.Combinations).
		SetAttr("pruned", ustats.Pruned).
		SetAttr("constraint_pruned", ustats.ConstraintPruned).
		SetAttr("fleet_size", ustats.FleetSize)
	uspan.End()

	sc := q.Streams[0]
	out.Window = stream.WindowSpec{RangeMS: sc.RangeMS, SlideMS: sc.SlideMS}
	if q.Pulse != nil {
		out.Pulse = &stream.Pulse{StartMS: q.Pulse.StartMS, FrequencyMS: q.Pulse.FrequencyMS}
	}

	tr.recordStats(rstats, out.UnfoldStats)
	return out, nil
}

// checkedMappings returns the mapping set with every constraint the
// catalog violates removed, checked once per catalog state; a check
// that finds violations counts and records each.
func (tr *Translator) checkedMappings() *mapping.Set {
	set, violations := tr.constraints.Checked()
	for _, v := range violations {
		if tr.Metrics != nil {
			tr.Metrics.Counter("mapping.constraint_violations").Inc()
		}
		tr.Recorder.Record(telemetry.EvConstraintViolation, v.Constraint, "", 0, int64(v.Rows))
	}
	return set
}

// recordStats folds one translation's stage statistics into the
// translator's registry (no-op without one). The histograms record the
// per-query rewrite size and unfolding fan-out distributions.
func (tr *Translator) recordStats(r rewrite.Stats, u mapping.UnfoldStats) {
	if tr.Metrics == nil {
		return
	}
	tr.Metrics.Counter("starql.translations").Inc()
	tr.Metrics.Counter("starql.rewrite.generated").Add(int64(r.Generated))
	tr.Metrics.Counter("starql.rewrite.atom_steps").Add(int64(r.AtomSteps))
	tr.Metrics.Counter("starql.rewrite.reduce_steps").Add(int64(r.ReduceSteps))
	tr.Metrics.Counter("starql.unfold.combinations").Add(int64(u.Combinations))
	tr.Metrics.Counter("starql.unfold.pruned").Add(int64(u.Pruned))
	tr.Metrics.Counter("starql.unfold.constraint_pruned").Add(int64(u.ConstraintPruned))
	tr.Metrics.Counter("starql.unfold.unmapped_atoms").Add(int64(u.UnmappedAtoms))
	tr.Metrics.Histogram("starql.rewrite.ucq_size", telemetry.SizeBuckets).Observe(float64(r.Result))
	tr.Metrics.Histogram("starql.unfold.fleet_size", telemetry.SizeBuckets).Observe(float64(u.FleetSize))
}

// EvalBindings executes the static fleet against the catalog, decodes
// the result rows into WHERE bindings, and expands t.StreamFleet for
// them. Stream members pruned under the declared constraints are added
// to t.UnfoldStats.ConstraintPruned, so call it once per Translation.
func (tr *Translator) EvalBindings(t *Translation) ([]Binding, error) {
	bindings, err := tr.evalStatic(t)
	if err != nil {
		return nil, err
	}
	fleet, pruned := tr.streamFleet(t, bindings)
	t.StreamFleet = fleet
	t.UnfoldStats.ConstraintPruned += pruned
	if tr.Metrics != nil {
		tr.Metrics.Counter("starql.bindings.evals").Inc()
		tr.Metrics.Counter("starql.unfold.constraint_pruned").Add(int64(pruned))
	}
	return bindings, nil
}

// evalStatic executes the static fleet and decodes its distinct rows.
// The bindings come back sorted by their dedup key, so neither the
// fleet's member order nor the join order the planner picks for a
// member can reorder them (or the stream fleet expanded from them).
func (tr *Translator) evalStatic(t *Translation) ([]Binding, error) {
	headVars := t.StaticCQ.Head
	type keyed struct {
		key string
		b   Binding
	}
	seen := map[string]bool{}
	var out []keyed
	ctx := engine.NewExecContext(tr.Catalog)
	cols := make([]int, len(headVars))
	var key strings.Builder
	for _, stmt := range t.StaticFleet {
		// Static bindings come only from non-stream sources; fleets whose
		// FROM references a stream are runtime-only.
		if referencesStream(stmt) {
			continue
		}
		plan, err := engine.Build(stmt, engine.CatalogResolver(tr.Catalog))
		if err != nil {
			return nil, err
		}
		rows, err := plan.Execute(ctx)
		if err != nil {
			return nil, err
		}
		schema := plan.Schema()
		for i, h := range headVars {
			if cols[i], err = schema.IndexOf(h); err != nil {
				return nil, fmt.Errorf("starql: fleet output lacks variable %s: %w", h, err)
			}
		}
		for _, row := range rows {
			b := make(Binding, len(headVars))
			key.Reset()
			for i, h := range headVars {
				term := valueToTerm(row[cols[i]])
				b[h] = term
				key.WriteString(term.String())
				key.WriteByte(0x1f)
			}
			k := key.String()
			if !seen[k] {
				seen[k] = true
				out = append(out, keyed{k, b})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].key < out[j].key })
	bindings := make([]Binding, len(out))
	for i, kb := range out {
		bindings[i] = kb.b
	}
	return bindings, nil
}

func referencesStream(stmt *sql.SelectStmt) bool {
	for _, b := range stmt.Branches() {
		for _, tr := range b.From {
			if tr.IsStream {
				return true
			}
			for _, j := range tr.Joins {
				if j.Right.IsStream {
					return true
				}
			}
		}
	}
	return false
}

// valueToTerm converts an engine value back to an RDF term: strings that
// look like IRIs become IRIs, everything else becomes a typed literal.
func valueToTerm(v relation.Value) rdf.Term {
	switch v.Type {
	case relation.TString:
		if strings.Contains(v.Str, "://") || strings.HasPrefix(v.Str, "urn:") {
			return rdf.NewIRI(v.Str)
		}
		return rdf.NewLiteral(v.Str)
	case relation.TInt:
		return rdf.NewInteger(v.Int)
	case relation.TFloat:
		return rdf.NewDouble(v.Float)
	case relation.TBool:
		return rdf.NewBoolean(v.Bool)
	case relation.TTime:
		return rdf.NewTypedLiteral(fmt.Sprint(v.Int), rdf.XSDDateTime)
	default:
		return rdf.NewLiteral(v.String())
	}
}

// HavingStreamPredicates returns the distinct predicate IRIs the HAVING
// clause reads from stream states, after macro expansion.
func (q *Query) HavingStreamPredicates() []string {
	if q.Having == nil {
		return nil
	}
	seen := map[string]bool{}
	var out []string
	var walk func(h HavingExpr)
	add := func(iri string) {
		if !seen[iri] {
			seen[iri] = true
			out = append(out, iri)
		}
	}
	walk = func(h HavingExpr) {
		switch x := h.(type) {
		case *AndExpr:
			walk(x.L)
			walk(x.R)
		case *OrExpr:
			walk(x.L)
			walk(x.R)
		case *NotExpr:
			walk(x.E)
		case *ExistsExpr:
			walk(x.Cond)
		case *ForallExpr:
			if x.Guard != nil {
				walk(x.Guard)
			}
			walk(x.Conclusion)
		case *ifThenExpr:
			walk(x.guard)
			walk(x.then)
		case *GraphAtom:
			if !x.Pattern.P.IsVar() {
				add(x.Pattern.P.Term.Value)
			}
		case *AggCall:
			if def, ok := q.Aggregates[x.Name]; ok && len(x.Args) == len(def.Params) {
				walk(x.Expand(def))
				return
			}
			// Built-ins take the attribute as an IRI argument.
			for _, a := range x.Args {
				if !a.IsVar() && a.Term.IsIRI() {
					add(a.Term.Value)
				}
			}
		}
	}
	walk(q.Having)
	return out
}

// streamFleet generates the low-level per-binding window queries: for
// every binding, every HAVING stream predicate, and every stream mapping
// of that predicate, one SQL(+) query that an engineer would otherwise
// write by hand (the paper: "a fleet with hundreds of queries ...
// semantically the same but syntactically different").
//
// Each key constant takes its column's declared type (keyLit); a member
// whose inverted segment no value of its column renders is dropped.
// Members whose inverted-subject constants violate a declared FK
// constraint of the stream mapping are dropped (and counted in pruned)
// before registration: the FK says every stream tuple's key appears in
// a referenced static table, so a member pinned to a key absent from
// that table can never produce a row. This is where the Figure 1 fleet
// shrinks — each sensor binding only feeds the stream its source
// actually routes to.
func (tr *Translator) streamFleet(t *Translation, bindings []Binding) (fleet []*sql.SelectStmt, pruned int) {
	q := t.Query
	sc := q.Streams[0]
	preds := q.HavingStreamPredicates()
	tr.mu.Lock()
	streams := tr.streams
	tr.mu.Unlock()
	for _, b := range bindings {
		for _, pred := range preds {
			for _, m := range t.mappings.ForPred(pred) {
				if !m.Source.IsStream {
					continue
				}
				types := make([]relation.Type, len(m.Subject.Columns)) // TNull: undeclared
				if schema, ok := streams[strings.ToLower(m.Source.Table)]; ok {
					for i, col := range m.Subject.Columns {
						if k, err := schema.IndexOf(col); err == nil {
							types[i] = schema.Columns[k].Type
						}
					}
				}
				// The subject of the HAVING atoms is the sensor-like WHERE
				// variable; find a binding value the subject template can
				// invert. Try each bound term.
				for _, v := range q.WhereVars() {
					term, ok := b[v]
					if !ok || !term.IsIRI() {
						continue
					}
					segs, ok := m.Subject.Invert(term.Value)
					if !ok {
						continue
					}
					stmt := sql.NewSelect()
					alias := "w"
					stmt.From = []*sql.TableRef{{
						Table: m.Source.Table, IsStream: true, Alias: alias,
						Window: &sql.WindowSpec{RangeMS: sc.RangeMS, SlideMS: sc.SlideMS},
					}}
					var conds []sql.Expr
					consts := map[string]relation.Value{}
					rendered := true
					for i, seg := range segs {
						col := m.Subject.Columns[i]
						v, ok := keyLit(seg, types[i])
						if !ok {
							rendered = false
							break
						}
						conds = append(conds, sql.Bin("=", &sql.ColumnRef{Table: alias, Name: col}, sql.Lit(v)))
						consts[strings.ToLower(col)] = v
					}
					if !rendered {
						continue
					}
					if mapping.FKProvesEmpty(m, consts, "", tr.Catalog) {
						pruned++
						continue
					}
					if m.Source.Where != nil {
						conds = append(conds, mapping.QualifyExpr(m.Source.Where, alias))
					}
					stmt.Where = sql.AndAll(conds...)
					if m.IsClass || m.ObjectIsData {
						col := "1"
						if !m.IsClass {
							col = m.Object.Columns[0]
						}
						stmt.Items = []sql.SelectItem{{Expr: &sql.ColumnRef{Table: alias, Name: col}, Alias: "value"}}
					} else {
						stmt.Items = []sql.SelectItem{{Expr: &sql.ColumnRef{Table: alias, Name: m.Object.Columns[0]}, Alias: "value"}}
					}
					fleet = append(fleet, stmt)
				}
			}
		}
	}
	return fleet, pruned
}

// keyLit types one inverted IRI segment as a constant of a key column
// of type typ, by the reader's rule (canonicalInt). An INTEGER column
// renders exactly the canonical decimal renderings of int64s, so any
// other segment matches no row: ok is false. A TEXT column takes the
// segment as it is. A column of another or undeclared type takes the
// canonical rendering of an int64 as an integer, any other segment as
// a string.
func keyLit(seg string, typ relation.Type) (v relation.Value, ok bool) {
	if typ == relation.TString {
		return relation.String_(seg), true
	}
	if n, ok := canonicalInt(seg); ok {
		return relation.Int(n), true
	}
	return relation.String_(seg), typ != relation.TInt
}
