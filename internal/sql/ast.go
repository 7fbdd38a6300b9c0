package sql

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/relation"
)

// Expr is a SQL expression node.
type Expr interface {
	fmt.Stringer
	exprNode()
}

// ColumnRef references a column, optionally qualified by a table alias.
type ColumnRef struct {
	Table string // optional qualifier
	Name  string
}

func (c *ColumnRef) exprNode() {}

// FullName returns the qualified column name.
func (c *ColumnRef) FullName() string {
	if c.Table != "" {
		return c.Table + "." + c.Name
	}
	return c.Name
}

func (c *ColumnRef) String() string {
	if c.Table != "" {
		return quoteIdent(c.Table) + "." + quoteIdent(c.Name)
	}
	return quoteIdent(c.Name)
}

// Literal is a constant value.
type Literal struct {
	Value relation.Value
}

func (l *Literal) exprNode() {}

// String renders the literal so that it lexes back as the same value: a
// float the shortest rendering would write with an exponent is written
// in full, with a decimal point, and a negative zero keeps its sign.
func (l *Literal) String() string {
	if l.Value.Type != relation.TFloat {
		return l.Value.String()
	}
	f := l.Value.Float
	s := strconv.FormatFloat(f, 'g', -1, 64)
	switch {
	case f == 0 && math.Signbit(f):
		return "-0.0"
	case strings.Contains(s, "e"):
		s = strconv.FormatFloat(f, 'f', -1, 64)
		if !strings.Contains(s, ".") {
			s += ".0"
		}
	}
	return s
}

// BinaryExpr applies a binary operator: = <> < <= > >= AND OR + - * / % ||.
type BinaryExpr struct {
	Op          string
	Left, Right Expr
}

func (b *BinaryExpr) exprNode() {}
func (b *BinaryExpr) String() string {
	return "(" + b.Left.String() + " " + b.Op + " " + b.Right.String() + ")"
}

// UnaryExpr applies NOT or unary minus.
type UnaryExpr struct {
	Op   string // "NOT" or "-"
	Expr Expr
}

func (u *UnaryExpr) exprNode() {}
func (u *UnaryExpr) String() string {
	if u.Op == "NOT" {
		return "(NOT " + u.Expr.String() + ")"
	}
	return "(" + u.Op + u.Expr.String() + ")"
}

// IsNullExpr tests nullness.
type IsNullExpr struct {
	Expr   Expr
	Negate bool // IS NOT NULL
}

func (i *IsNullExpr) exprNode() {}
func (i *IsNullExpr) String() string {
	if i.Negate {
		return "(" + i.Expr.String() + " IS NOT NULL)"
	}
	return "(" + i.Expr.String() + " IS NULL)"
}

// FuncExpr is a scalar, aggregate, or UDF call. Star marks COUNT(*).
type FuncExpr struct {
	Name     string
	Args     []Expr
	Star     bool
	Distinct bool
}

func (f *FuncExpr) exprNode() {}
func (f *FuncExpr) String() string {
	name := funcName(f.Name)
	if f.Star {
		return name + "(*)"
	}
	args := make([]string, len(f.Args))
	for i, a := range f.Args {
		args[i] = a.String()
	}
	d := ""
	if f.Distinct {
		d = "DISTINCT "
	}
	return name + "(" + d + strings.Join(args, ", ") + ")"
}

// funcName renders a function name in upper case when that lexes back
// as the same name (the parser lowercases function names), else quoted.
func funcName(name string) string {
	if up := strings.ToUpper(name); plainIdent(up) && !isReserved(up) && strings.ToLower(up) == strings.ToLower(name) {
		return up
	}
	return quoteIdent(name)
}

// CaseExpr is CASE WHEN ... THEN ... [ELSE ...] END.
type CaseExpr struct {
	Whens []CaseWhen
	Else  Expr
}

// CaseWhen is one WHEN/THEN branch.
type CaseWhen struct {
	Cond, Then Expr
}

func (c *CaseExpr) exprNode() {}
func (c *CaseExpr) String() string {
	var sb strings.Builder
	sb.WriteString("CASE")
	for _, w := range c.Whens {
		fmt.Fprintf(&sb, " WHEN %s THEN %s", w.Cond, w.Then)
	}
	if c.Else != nil {
		fmt.Fprintf(&sb, " ELSE %s", c.Else)
	}
	sb.WriteString(" END")
	return sb.String()
}

// InExpr is "expr IN (v1, v2, ...)".
type InExpr struct {
	Expr   Expr
	List   []Expr
	Negate bool
}

func (i *InExpr) exprNode() {}
func (i *InExpr) String() string {
	items := make([]string, len(i.List))
	for j, e := range i.List {
		items[j] = e.String()
	}
	op := "IN"
	if i.Negate {
		op = "NOT IN"
	}
	return fmt.Sprintf("(%s %s (%s))", i.Expr, op, strings.Join(items, ", "))
}

// SelectItem is one projection: an expression with an optional alias, or
// a star ("*" / "t.*").
type SelectItem struct {
	Expr  Expr
	Alias string
	Star  bool
	Table string // qualifier for "t.*"
}

func (s SelectItem) String() string {
	if s.Star {
		if s.Table != "" {
			return quoteIdent(s.Table) + ".*"
		}
		return "*"
	}
	if s.Alias != "" {
		return s.Expr.String() + " AS " + quoteIdent(s.Alias)
	}
	return s.Expr.String()
}

// WindowSpec is the SQL(+) stream window: RANGE and SLIDE in
// milliseconds. It corresponds to the paper's timeSlidingWindow operator.
type WindowSpec struct {
	RangeMS int64
	SlideMS int64
}

func (w WindowSpec) String() string {
	return fmt.Sprintf("[RANGE %d SLIDE %d]", w.RangeMS, w.SlideMS)
}

// JoinKind enumerates supported join types.
type JoinKind uint8

const (
	// JoinInner is INNER JOIN.
	JoinInner JoinKind = iota
	// JoinLeft is LEFT OUTER JOIN.
	JoinLeft
	// JoinCross is a comma/CROSS join.
	JoinCross
)

// TableRef is one FROM item: a base table, a stream with a window, or a
// derived table (subquery), plus any chained joins.
type TableRef struct {
	Table    string      // base table or stream name
	IsStream bool        // FROM STREAM name
	Window   *WindowSpec // window over a stream
	Subquery *SelectStmt // derived table
	Alias    string
	Joins    []Join
}

// Name returns the alias if set, else the table name.
func (t *TableRef) Name() string {
	if t.Alias != "" {
		return t.Alias
	}
	return t.Table
}

func (t *TableRef) String() string {
	var sb strings.Builder
	switch {
	case t.Subquery != nil:
		sb.WriteString("(" + t.Subquery.String() + ")")
	case t.IsStream:
		sb.WriteString("STREAM " + quoteIdent(t.Table))
	default:
		sb.WriteString(quoteIdent(t.Table))
	}
	if t.Window != nil {
		sb.WriteString(" " + t.Window.String())
	}
	if t.Alias != "" {
		sb.WriteString(" AS " + quoteIdent(t.Alias))
	}
	for _, j := range t.Joins {
		sb.WriteString(" " + j.String())
	}
	return sb.String()
}

// Join is one chained join clause.
type Join struct {
	Kind  JoinKind
	Right *TableRef
	On    Expr // nil for cross joins
}

func (j Join) String() string {
	var kw string
	switch j.Kind {
	case JoinInner:
		kw = "JOIN"
	case JoinLeft:
		kw = "LEFT JOIN"
	case JoinCross:
		kw = "CROSS JOIN"
	}
	s := kw + " " + j.Right.String()
	if j.On != nil {
		s += " ON " + j.On.String()
	}
	return s
}

// OrderItem is one ORDER BY entry.
type OrderItem struct {
	Expr Expr
	Desc bool
}

func (o OrderItem) String() string {
	if o.Desc {
		return o.Expr.String() + " DESC"
	}
	return o.Expr.String()
}

// SelectStmt is a SELECT query, possibly a UNION [ALL] chain: the
// statement represents its first branch with the remaining branches in
// Unions.
type SelectStmt struct {
	Distinct bool
	Items    []SelectItem
	From     []*TableRef
	Where    Expr
	GroupBy  []Expr
	Having   Expr
	OrderBy  []OrderItem
	Limit    int // -1 when absent
	Unions   []*SelectStmt
	UnionAll bool
}

// NewSelect returns a SelectStmt with no LIMIT.
func NewSelect() *SelectStmt { return &SelectStmt{Limit: -1} }

func (s *SelectStmt) String() string {
	var sb strings.Builder
	sb.WriteString("SELECT ")
	if s.Distinct {
		sb.WriteString("DISTINCT ")
	}
	items := make([]string, len(s.Items))
	for i, it := range s.Items {
		items[i] = it.String()
	}
	sb.WriteString(strings.Join(items, ", "))
	if len(s.From) > 0 {
		sb.WriteString(" FROM ")
		froms := make([]string, len(s.From))
		for i, f := range s.From {
			froms[i] = f.String()
		}
		sb.WriteString(strings.Join(froms, ", "))
	}
	if s.Where != nil {
		sb.WriteString(" WHERE " + s.Where.String())
	}
	if len(s.GroupBy) > 0 {
		parts := make([]string, len(s.GroupBy))
		for i, g := range s.GroupBy {
			parts[i] = g.String()
		}
		sb.WriteString(" GROUP BY " + strings.Join(parts, ", "))
	}
	if s.Having != nil {
		sb.WriteString(" HAVING " + s.Having.String())
	}
	if len(s.OrderBy) > 0 {
		parts := make([]string, len(s.OrderBy))
		for i, o := range s.OrderBy {
			parts[i] = o.String()
		}
		sb.WriteString(" ORDER BY " + strings.Join(parts, ", "))
	}
	if s.Limit >= 0 {
		fmt.Fprintf(&sb, " LIMIT %d", s.Limit)
	}
	for _, u := range s.Unions {
		if s.UnionAll {
			sb.WriteString(" UNION ALL ")
		} else {
			sb.WriteString(" UNION ")
		}
		sb.WriteString(u.String())
	}
	return sb.String()
}

// Branches returns the statement and its union branches as a flat list.
func (s *SelectStmt) Branches() []*SelectStmt {
	out := []*SelectStmt{s}
	return append(out, s.Unions...)
}

// Col returns a bare column reference expression.
func Col(name string) Expr {
	if i := strings.LastIndex(name, "."); i >= 0 {
		return &ColumnRef{Table: name[:i], Name: name[i+1:]}
	}
	return &ColumnRef{Name: name}
}

// Lit returns a literal expression.
func Lit(v relation.Value) Expr { return &Literal{Value: v} }

// Bin returns a binary expression.
func Bin(op string, l, r Expr) Expr { return &BinaryExpr{Op: op, Left: l, Right: r} }

// AndAll conjoins the non-nil expressions; it returns nil for none.
func AndAll(exprs ...Expr) Expr {
	var out Expr
	for _, e := range exprs {
		if e == nil {
			continue
		}
		if out == nil {
			out = e
			continue
		}
		out = Bin("AND", out, e)
	}
	return out
}
