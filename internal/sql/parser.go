package sql

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/relation"
)

// Parse parses a single SQL(+) SELECT statement (optionally ending in a
// semicolon) and returns its AST.
func Parse(src string) (*SelectStmt, error) {
	toks, err := Lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	stmt, err := p.parseSelect()
	if err != nil {
		return nil, err
	}
	p.acceptOp(";")
	if !p.atEOF() {
		return nil, fmt.Errorf("sql: unexpected %s after statement", p.peek())
	}
	return stmt, nil
}

// MustParse parses and panics on error; for statically-known queries.
func MustParse(src string) *SelectStmt {
	s, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return s
}

type parser struct {
	toks []Token
	pos  int
}

func (p *parser) peek() Token { return p.toks[p.pos] }
func (p *parser) next() Token { t := p.toks[p.pos]; p.pos++; return t }
func (p *parser) atEOF() bool { return p.peek().Kind == TokEOF }

// acceptKW consumes the next token when it is the given keyword.
func (p *parser) acceptKW(kw string) bool {
	t := p.peek()
	if t.Kind == TokIdent && strings.EqualFold(t.Text, kw) {
		p.pos++
		return true
	}
	return false
}

// peekKW reports whether the next token is the given keyword.
func (p *parser) peekKW(kw string) bool {
	t := p.peek()
	return t.Kind == TokIdent && strings.EqualFold(t.Text, kw)
}

func (p *parser) expectKW(kw string) error {
	if !p.acceptKW(kw) {
		return fmt.Errorf("sql: expected %s, found %s", kw, p.peek())
	}
	return nil
}

func (p *parser) acceptOp(op string) bool {
	t := p.peek()
	if t.Kind == TokOp && t.Text == op {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expectOp(op string) error {
	if !p.acceptOp(op) {
		return fmt.Errorf("sql: expected %q, found %s", op, p.peek())
	}
	return nil
}

func (p *parser) expectIdent() (string, error) {
	t := p.peek()
	if t.Kind != TokIdent && t.Kind != TokQuoted {
		return "", fmt.Errorf("sql: expected identifier, found %s", t)
	}
	p.pos++
	return t.Text, nil
}

// peekName reports whether the next token can only be a name: a quoted
// identifier, or an unquoted one that is not reserved.
func (p *parser) peekName() bool {
	t := p.peek()
	return t.Kind == TokQuoted || t.Kind == TokIdent && !isReserved(t.Text)
}

// reserved keywords that terminate expressions and cannot be aliases.
var reserved = map[string]bool{
	"select": true, "from": true, "where": true, "group": true, "having": true,
	"order": true, "limit": true, "union": true, "join": true, "left": true,
	"cross": true, "inner": true, "on": true, "and": true, "or": true,
	"not": true, "as": true, "by": true, "distinct": true, "stream": true,
	"is": true, "null": true, "in": true, "case": true, "when": true,
	"then": true, "else": true, "end": true, "desc": true, "asc": true,
	"between": true, "all": true, "outer": true, "range": true, "slide": true,
}

func isReserved(s string) bool { return reserved[strings.ToLower(s)] }

// isKeyword reports whether the parser may read unquoted s as something
// other than a name: a reserved word or a boolean literal.
func isKeyword(s string) bool {
	return isReserved(s) || strings.EqualFold(s, "true") || strings.EqualFold(s, "false")
}

func (p *parser) parseSelect() (*SelectStmt, error) {
	if err := p.expectKW("SELECT"); err != nil {
		return nil, err
	}
	s := NewSelect()
	s.Distinct = p.acceptKW("DISTINCT")
	if p.acceptKW("ALL") && s.Distinct {
		return nil, fmt.Errorf("sql: both DISTINCT and ALL")
	}
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		s.Items = append(s.Items, item)
		if !p.acceptOp(",") {
			break
		}
	}
	if p.acceptKW("FROM") {
		for {
			tr, err := p.parseTableRef()
			if err != nil {
				return nil, err
			}
			s.From = append(s.From, tr)
			if !p.acceptOp(",") {
				break
			}
		}
	}
	if p.acceptKW("WHERE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		s.Where = e
	}
	if p.acceptKW("GROUP") {
		if err := p.expectKW("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			s.GroupBy = append(s.GroupBy, e)
			if !p.acceptOp(",") {
				break
			}
		}
	}
	if p.acceptKW("HAVING") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		s.Having = e
	}
	if p.acceptKW("ORDER") {
		if err := p.expectKW("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := OrderItem{Expr: e}
			if p.acceptKW("DESC") {
				item.Desc = true
			} else {
				p.acceptKW("ASC")
			}
			s.OrderBy = append(s.OrderBy, item)
			if !p.acceptOp(",") {
				break
			}
		}
	}
	if p.acceptKW("LIMIT") {
		t := p.peek()
		if t.Kind != TokNumber {
			return nil, fmt.Errorf("sql: expected number after LIMIT, found %s", t)
		}
		p.pos++
		n, err := strconv.Atoi(t.Text)
		if err != nil || n < 0 {
			return nil, fmt.Errorf("sql: invalid LIMIT %q", t.Text)
		}
		s.Limit = n
	}
	for p.acceptKW("UNION") {
		all := p.acceptKW("ALL")
		if len(s.Unions) == 0 {
			s.UnionAll = all
		} else if s.UnionAll != all {
			return nil, fmt.Errorf("sql: mixed UNION and UNION ALL are not supported")
		}
		branch, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		if len(branch.Unions) > 0 && branch.UnionAll != all {
			return nil, fmt.Errorf("sql: mixed UNION and UNION ALL are not supported")
		}
		// Flatten right-nested unions.
		s.Unions = append(s.Unions, branch)
		s.Unions = append(s.Unions, branch.Unions...)
		branch.Unions = nil
	}
	return s, nil
}

func (p *parser) parseSelectItem() (SelectItem, error) {
	if p.acceptOp("*") {
		return SelectItem{Star: true}, nil
	}
	// "t.*"
	if t := p.peek(); p.peekName() {
		if p.pos+2 < len(p.toks) &&
			p.toks[p.pos+1].Kind == TokOp && p.toks[p.pos+1].Text == "." &&
			p.toks[p.pos+2].Kind == TokOp && p.toks[p.pos+2].Text == "*" {
			p.pos += 3
			return SelectItem{Star: true, Table: t.Text}, nil
		}
	}
	e, err := p.parseExpr()
	if err != nil {
		return SelectItem{}, err
	}
	item := SelectItem{Expr: e}
	if p.acceptKW("AS") {
		a, err := p.expectIdent()
		if err != nil {
			return SelectItem{}, err
		}
		item.Alias = a
	} else if p.peekName() {
		item.Alias = p.next().Text
	}
	return item, nil
}

func (p *parser) parseTableRef() (*TableRef, error) {
	tr, err := p.parseTablePrimary()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.peekKW("JOIN") || p.peekKW("INNER"):
			p.acceptKW("INNER")
			p.acceptKW("JOIN")
			right, err := p.parseTablePrimary()
			if err != nil {
				return nil, err
			}
			if err := p.expectKW("ON"); err != nil {
				return nil, err
			}
			on, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			tr.Joins = append(tr.Joins, Join{Kind: JoinInner, Right: right, On: on})
		case p.peekKW("LEFT"):
			p.acceptKW("LEFT")
			p.acceptKW("OUTER")
			if err := p.expectKW("JOIN"); err != nil {
				return nil, err
			}
			right, err := p.parseTablePrimary()
			if err != nil {
				return nil, err
			}
			if err := p.expectKW("ON"); err != nil {
				return nil, err
			}
			on, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			tr.Joins = append(tr.Joins, Join{Kind: JoinLeft, Right: right, On: on})
		case p.peekKW("CROSS"):
			p.acceptKW("CROSS")
			if err := p.expectKW("JOIN"); err != nil {
				return nil, err
			}
			right, err := p.parseTablePrimary()
			if err != nil {
				return nil, err
			}
			tr.Joins = append(tr.Joins, Join{Kind: JoinCross, Right: right})
		default:
			return tr, nil
		}
	}
}

func (p *parser) parseTablePrimary() (*TableRef, error) {
	tr := &TableRef{}
	switch {
	case p.acceptOp("("):
		sub, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		tr.Subquery = sub
	case p.acceptKW("STREAM"):
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		tr.Table = name
		tr.IsStream = true
	default:
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		tr.Table = name
	}
	// Optional window: [RANGE n SLIDE n].
	if p.acceptOp("[") {
		if err := p.expectKW("RANGE"); err != nil {
			return nil, err
		}
		rng, err := p.expectNumber()
		if err != nil {
			return nil, err
		}
		if err := p.expectKW("SLIDE"); err != nil {
			return nil, err
		}
		slide, err := p.expectNumber()
		if err != nil {
			return nil, err
		}
		if err := p.expectOp("]"); err != nil {
			return nil, err
		}
		if rng <= 0 || slide <= 0 {
			return nil, fmt.Errorf("sql: window RANGE and SLIDE must be positive")
		}
		tr.Window = &WindowSpec{RangeMS: rng, SlideMS: slide}
	}
	if tr.Window != nil && !tr.IsStream && tr.Subquery == nil {
		// Allow "name [RANGE..]" to imply a stream.
		tr.IsStream = true
	}
	if p.acceptKW("AS") {
		a, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		tr.Alias = a
	} else if p.peekName() {
		tr.Alias = p.next().Text
	}
	if tr.Subquery != nil && tr.Alias == "" {
		return nil, fmt.Errorf("sql: derived table requires an alias")
	}
	return tr, nil
}

func (p *parser) expectNumber() (int64, error) {
	t := p.peek()
	if t.Kind != TokNumber {
		return 0, fmt.Errorf("sql: expected number, found %s", t)
	}
	p.pos++
	return strconv.ParseInt(t.Text, 10, 64)
}

// ---- expressions (precedence climbing) ----

func (p *parser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *parser) parseOr() (Expr, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.acceptKW("OR") {
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = Bin("OR", left, right)
	}
	return left, nil
}

func (p *parser) parseAnd() (Expr, error) {
	left, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.acceptKW("AND") {
		right, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		left = Bin("AND", left, right)
	}
	return left, nil
}

func (p *parser) parseNot() (Expr, error) {
	if p.acceptKW("NOT") {
		e, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Op: "NOT", Expr: e}, nil
	}
	return p.parseComparison()
}

func (p *parser) parseComparison() (Expr, error) {
	left, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	// IS [NOT] NULL
	if p.acceptKW("IS") {
		neg := p.acceptKW("NOT")
		if err := p.expectKW("NULL"); err != nil {
			return nil, err
		}
		return &IsNullExpr{Expr: left, Negate: neg}, nil
	}
	// [NOT] IN (list)
	neg := false
	if p.peekKW("NOT") && p.pos+1 < len(p.toks) &&
		p.toks[p.pos+1].Kind == TokIdent && strings.EqualFold(p.toks[p.pos+1].Text, "IN") {
		p.pos += 2
		neg = true
		return p.parseInList(left, neg)
	}
	if p.acceptKW("IN") {
		return p.parseInList(left, neg)
	}
	// BETWEEN a AND b desugars to (left >= a AND left <= b).
	if p.acceptKW("BETWEEN") {
		lo, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		if err := p.expectKW("AND"); err != nil {
			return nil, err
		}
		hi, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		return Bin("AND", Bin(">=", left, lo), Bin("<=", left, hi)), nil
	}
	for _, op := range []string{"<=", ">=", "<>", "!=", "=", "<", ">"} {
		if p.acceptOp(op) {
			right, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			if op == "!=" {
				op = "<>"
			}
			return Bin(op, left, right), nil
		}
	}
	return left, nil
}

func (p *parser) parseInList(left Expr, neg bool) (Expr, error) {
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	var list []Expr
	for {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		list = append(list, e)
		if !p.acceptOp(",") {
			break
		}
	}
	if err := p.expectOp(")"); err != nil {
		return nil, err
	}
	return &InExpr{Expr: left, List: list, Negate: neg}, nil
}

func (p *parser) parseAdditive() (Expr, error) {
	left, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		var op string
		switch {
		case p.acceptOp("+"):
			op = "+"
		case p.acceptOp("-"):
			op = "-"
		case p.acceptOp("||"):
			op = "||"
		default:
			return left, nil
		}
		right, err := p.parseMultiplicative()
		if err != nil {
			return nil, err
		}
		left = Bin(op, left, right)
	}
}

func (p *parser) parseMultiplicative() (Expr, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		var op string
		switch {
		case p.acceptOp("*"):
			op = "*"
		case p.acceptOp("/"):
			op = "/"
		case p.acceptOp("%"):
			op = "%"
		default:
			return left, nil
		}
		right, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		left = Bin(op, left, right)
	}
}

func (p *parser) parseUnary() (Expr, error) {
	if p.acceptOp("-") {
		e, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		if lit, ok := e.(*Literal); ok {
			switch lit.Value.Type {
			case relation.TInt:
				return Lit(relation.Int(-lit.Value.Int)), nil
			case relation.TFloat:
				return Lit(relation.Float(-lit.Value.Float)), nil
			}
		}
		return &UnaryExpr{Op: "-", Expr: e}, nil
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.peek()
	switch t.Kind {
	case TokNumber:
		p.pos++
		if strings.Contains(t.Text, ".") {
			f, err := strconv.ParseFloat(t.Text, 64)
			if err != nil {
				return nil, fmt.Errorf("sql: bad number %q", t.Text)
			}
			return Lit(relation.Float(f)), nil
		}
		n, err := strconv.ParseInt(t.Text, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("sql: bad number %q", t.Text)
		}
		return Lit(relation.Int(n)), nil
	case TokString:
		p.pos++
		return Lit(relation.String_(t.Text)), nil
	case TokOp:
		if t.Text == "(" {
			p.pos++
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
		return nil, fmt.Errorf("sql: unexpected %s in expression", t)
	case TokIdent:
		switch strings.ToLower(t.Text) {
		case "null":
			p.pos++
			return Lit(relation.Null), nil
		case "true":
			p.pos++
			return Lit(relation.Bool_(true)), nil
		case "false":
			p.pos++
			return Lit(relation.Bool_(false)), nil
		case "case":
			return p.parseCase()
		}
		if isReserved(t.Text) {
			return nil, fmt.Errorf("sql: unexpected keyword %s in expression", t)
		}
		fallthrough
	case TokQuoted:
		p.pos++
		// Function call?
		if p.acceptOp("(") {
			return p.parseFuncCall(t.Text)
		}
		// Qualified column?
		if p.acceptOp(".") {
			name, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			return &ColumnRef{Table: t.Text, Name: name}, nil
		}
		return &ColumnRef{Name: t.Text}, nil
	default:
		return nil, fmt.Errorf("sql: unexpected %s", t)
	}
}

func (p *parser) parseFuncCall(name string) (Expr, error) {
	f := &FuncExpr{Name: strings.ToLower(name)}
	if p.acceptOp("*") {
		f.Star = true
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		return f, nil
	}
	if p.acceptOp(")") {
		return f, nil
	}
	f.Distinct = p.acceptKW("DISTINCT")
	for {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		f.Args = append(f.Args, e)
		if !p.acceptOp(",") {
			break
		}
	}
	if err := p.expectOp(")"); err != nil {
		return nil, err
	}
	return f, nil
}

func (p *parser) parseCase() (Expr, error) {
	if err := p.expectKW("CASE"); err != nil {
		return nil, err
	}
	c := &CaseExpr{}
	for p.acceptKW("WHEN") {
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectKW("THEN"); err != nil {
			return nil, err
		}
		then, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Whens = append(c.Whens, CaseWhen{Cond: cond, Then: then})
	}
	if len(c.Whens) == 0 {
		return nil, fmt.Errorf("sql: CASE without WHEN")
	}
	if p.acceptKW("ELSE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Else = e
	}
	if err := p.expectKW("END"); err != nil {
		return nil, err
	}
	return c, nil
}
