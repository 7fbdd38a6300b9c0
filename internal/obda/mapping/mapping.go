package mapping

import (
	"fmt"

	"repro/internal/relation"
	"repro/internal/sql"
)

// Mapping is one GAV mapping: it populates an ontological term (class or
// property) from a source query.
//
// Class mapping:    Pred(Subject(~x)) <- Source
// Property mapping: Pred(Subject(~x), Object(~x)) <- Source
type Mapping struct {
	// ID names the mapping for diagnostics.
	ID string
	// Pred is the ontological term IRI this mapping populates.
	Pred string
	// IsClass distinguishes class from property mappings.
	IsClass bool
	// Subject constructs the subject IRI from source columns.
	Subject Template
	// Object constructs the object for property mappings: an IRI template
	// for object properties, a raw column ({col}) for data properties.
	Object Template
	// ObjectIsData marks data-property mappings (raw literal object).
	ObjectIsData bool

	// Source is the table or stream the mapping reads. Sources are
	// "simple" selects: one table/stream with an optional WHERE and a
	// plain projection, which is what BootOX emits and what keeps
	// unfolding flat. Complex sources are expressed by pre-declaring a
	// view in the catalog.
	Source SourceRef

	// KeyColumns is a unique key of the source (e.g. its primary key):
	// its columns are non-null and no two rows share their values. When
	// two atoms of one unfolded query scan the same source joined on the
	// full key, the self-join is eliminated.
	KeyColumns []string

	// FKs declares inclusion dependencies (foreign keys) of the source:
	// each row's Columns tuple appears in RefTable.RefColumns, and the
	// Columns are non-null. Unfolding drops a branch whose FK columns are
	// pinned to constants absent from RefTable as provably empty, and
	// the stream fleet drops a member the same way at registration time.
	FKs []ForeignKey
}

// ForeignKey is an inclusion dependency declared on a mapping's source.
type ForeignKey struct {
	Columns    []string // source columns (non-null by declaration)
	RefTable   string   // referenced static table
	RefColumns []string // referenced columns, same arity as Columns
}

// SourceRef is the relational source of a mapping.
type SourceRef struct {
	Table    string
	IsStream bool
	Where    sql.Expr // optional filter over the source's columns
}

// String renders the source.
func (s SourceRef) String() string {
	kind := ""
	if s.IsStream {
		kind = "STREAM "
	}
	out := kind + s.Table
	if s.Where != nil {
		out += " WHERE " + s.Where.String()
	}
	return out
}

// Validate checks structural invariants.
func (m Mapping) Validate() error {
	if m.Pred == "" {
		return fmt.Errorf("mapping %s: empty predicate", m.ID)
	}
	if m.Source.Table == "" {
		return fmt.Errorf("mapping %s: empty source", m.ID)
	}
	if len(m.Subject.Columns) == 0 {
		return fmt.Errorf("mapping %s: empty subject template", m.ID)
	}
	if !m.IsClass {
		if len(m.Object.Columns) == 0 {
			return fmt.Errorf("mapping %s: property mapping without object template", m.ID)
		}
		if m.ObjectIsData && !m.Object.IsRawColumn() {
			return fmt.Errorf("mapping %s: data property object must be a raw column", m.ID)
		}
	}
	for _, fk := range m.FKs {
		if len(fk.Columns) == 0 || fk.RefTable == "" || len(fk.Columns) != len(fk.RefColumns) {
			return fmt.Errorf("mapping %s: malformed foreign key %v", m.ID, fk)
		}
	}
	return nil
}

// String renders the mapping in the paper's notation.
func (m Mapping) String() string {
	if m.IsClass {
		return fmt.Sprintf("%s(%s) <- %s", m.Pred, m.Subject, m.Source)
	}
	return fmt.Sprintf("%s(%s, %s) <- %s", m.Pred, m.Subject, m.Object, m.Source)
}

// Set is a collection of mappings indexed by predicate. The paper's
// modularity argument rests on this: each mapping covers one ontological
// term, so terms can be mapped independently and composed per query.
type Set struct {
	byPred map[string][]Mapping
	all    []Mapping
}

// NewSet builds a set from mappings, validating each.
func NewSet(ms ...Mapping) (*Set, error) {
	s := &Set{byPred: make(map[string][]Mapping)}
	for _, m := range ms {
		if err := s.Add(m); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// MustNewSet panics on error; for statically-known mapping sets.
func MustNewSet(ms ...Mapping) *Set {
	s, err := NewSet(ms...)
	if err != nil {
		panic(err)
	}
	return s
}

// Add validates and inserts one mapping.
func (s *Set) Add(m Mapping) error {
	if err := m.Validate(); err != nil {
		return err
	}
	if m.ID == "" {
		m.ID = fmt.Sprintf("m%d", len(s.all))
	}
	s.byPred[m.Pred] = append(s.byPred[m.Pred], m)
	s.all = append(s.all, m)
	return nil
}

// ForPred returns the mappings for a predicate IRI.
func (s *Set) ForPred(pred string) []Mapping { return s.byPred[pred] }

// All returns every mapping.
func (s *Set) All() []Mapping { return s.all }

// Len returns the number of mappings.
func (s *Set) Len() int { return len(s.all) }

// Preds returns the mapped predicate IRIs, sorted.
func (s *Set) Preds() []string {
	out := make([]string, 0, len(s.byPred))
	for p := range s.byPred {
		out = append(out, p)
	}
	sortStrings(out)
	return out
}

func sortStrings(ss []string) {
	for i := 1; i < len(ss); i++ {
		for j := i; j > 0 && ss[j] < ss[j-1]; j-- {
			ss[j], ss[j-1] = ss[j-1], ss[j]
		}
	}
}

// QualifyExpr re-qualifies every column reference of a source WHERE
// clause by alias, replacing any qualifier it had (an empty alias leaves
// the references bare).
func QualifyExpr(e sql.Expr, alias string) sql.Expr {
	switch x := e.(type) {
	case nil:
		return nil
	case *sql.ColumnRef:
		return &sql.ColumnRef{Table: alias, Name: x.Name}
	case *sql.BinaryExpr:
		return sql.Bin(x.Op, QualifyExpr(x.Left, alias), QualifyExpr(x.Right, alias))
	case *sql.UnaryExpr:
		return &sql.UnaryExpr{Op: x.Op, Expr: QualifyExpr(x.Expr, alias)}
	case *sql.IsNullExpr:
		return &sql.IsNullExpr{Expr: QualifyExpr(x.Expr, alias), Negate: x.Negate}
	case *sql.FuncExpr:
		args := make([]sql.Expr, len(x.Args))
		for i, a := range x.Args {
			args[i] = QualifyExpr(a, alias)
		}
		return &sql.FuncExpr{Name: x.Name, Args: args, Star: x.Star, Distinct: x.Distinct}
	case *sql.InExpr:
		out := &sql.InExpr{Expr: QualifyExpr(x.Expr, alias), Negate: x.Negate}
		for _, i := range x.List {
			out.List = append(out.List, QualifyExpr(i, alias))
		}
		return out
	case *sql.CaseExpr:
		out := &sql.CaseExpr{Else: QualifyExpr(x.Else, alias)}
		for _, w := range x.Whens {
			out.Whens = append(out.Whens, sql.CaseWhen{
				Cond: QualifyExpr(w.Cond, alias),
				Then: QualifyExpr(w.Then, alias),
			})
		}
		return out
	default:
		return e
	}
}

// renderTemplate converts a template over a source alias into a SQL
// expression: either a bare column or a '||' concatenation of literals
// and columns.
func renderTemplate(t Template, alias string) sql.Expr {
	if t.IsRawColumn() {
		return &sql.ColumnRef{Table: alias, Name: t.Columns[0]}
	}
	var out sql.Expr
	add := func(e sql.Expr) {
		if out == nil {
			out = e
			return
		}
		out = sql.Bin("||", out, e)
	}
	for i, c := range t.Columns {
		if t.Literals[i] != "" {
			add(stringLit(t.Literals[i]))
		}
		add(&sql.ColumnRef{Table: alias, Name: c})
	}
	if last := t.Literals[len(t.Literals)-1]; last != "" {
		add(stringLit(last))
	}
	return out
}

func stringLit(s string) sql.Expr {
	return sql.Lit(relation.String_(s))
}

// segmentLiteral converts an inverted template segment into a SQL
// literal: digit-only segments become integers so they compare equal to
// integer key columns.
func segmentLiteral(seg string) sql.Expr {
	allDigits := len(seg) > 0
	for i := 0; i < len(seg); i++ {
		if seg[i] < '0' || seg[i] > '9' {
			allDigits = false
			break
		}
	}
	if allDigits && len(seg) < 19 {
		var n int64
		for i := 0; i < len(seg); i++ {
			n = n*10 + int64(seg[i]-'0')
		}
		return sql.Lit(relation.Int(n))
	}
	return stringLit(seg)
}
