package rdf

import (
	"fmt"
	"strings"
	"unicode"
)

// ParseTurtle parses a practical subset of the Turtle syntax: @prefix
// directives, IRIs, prefixed names, the "a" keyword, string literals with
// optional datatype or language tag, integer/decimal/boolean shorthand,
// blank node labels, and ";" / "," predicate and object lists.
// It returns the triples in document order.
func ParseTurtle(src string) ([]Triple, PrefixMap, error) {
	p := &turtleParser{src: src, prefixes: StandardPrefixes()}
	triples, err := p.parse()
	if err != nil {
		return nil, nil, err
	}
	return triples, p.prefixes, nil
}

// MustParseTurtle is ParseTurtle that panics on error; intended for
// statically-known documents such as built-in ontologies and tests.
func MustParseTurtle(src string) []Triple {
	ts, _, err := ParseTurtle(src)
	if err != nil {
		panic(err)
	}
	return ts
}

type turtleParser struct {
	src      string
	pos      int
	line     int
	prefixes PrefixMap
}

func (p *turtleParser) errf(format string, args ...any) error {
	return fmt.Errorf("turtle: line %d: %s", p.line+1, fmt.Sprintf(format, args...))
}

func (p *turtleParser) skipWS() {
	for p.pos < len(p.src) {
		c := p.src[p.pos]
		switch {
		case c == '\n':
			p.line++
			p.pos++
		case c == ' ' || c == '\t' || c == '\r':
			p.pos++
		case c == '#':
			for p.pos < len(p.src) && p.src[p.pos] != '\n' {
				p.pos++
			}
		default:
			return
		}
	}
}

func (p *turtleParser) eof() bool {
	p.skipWS()
	return p.pos >= len(p.src)
}

func (p *turtleParser) peek() byte {
	if p.pos < len(p.src) {
		return p.src[p.pos]
	}
	return 0
}

func (p *turtleParser) expect(c byte) error {
	p.skipWS()
	if p.peek() != c {
		return p.errf("expected %q, found %q", string(c), string(p.peek()))
	}
	p.pos++
	return nil
}

func (p *turtleParser) parse() ([]Triple, error) {
	var out []Triple
	for !p.eof() {
		if strings.HasPrefix(p.src[p.pos:], "@prefix") {
			if err := p.parsePrefix(); err != nil {
				return nil, err
			}
			continue
		}
		ts, err := p.parseStatement()
		if err != nil {
			return nil, err
		}
		out = append(out, ts...)
	}
	return out, nil
}

func (p *turtleParser) parsePrefix() error {
	p.pos += len("@prefix")
	p.skipWS()
	start := p.pos
	for p.pos < len(p.src) && p.src[p.pos] != ':' {
		p.pos++
	}
	name := strings.TrimSpace(p.src[start:p.pos])
	if err := p.expect(':'); err != nil {
		return err
	}
	p.skipWS()
	iri, err := p.parseIRIRef()
	if err != nil {
		return err
	}
	p.prefixes[name] = iri
	return p.expect('.')
}

func (p *turtleParser) parseIRIRef() (string, error) {
	if p.peek() != '<' {
		return "", p.errf("expected '<'")
	}
	p.pos++
	start := p.pos
	for p.pos < len(p.src) && p.src[p.pos] != '>' {
		p.pos++
	}
	if p.pos >= len(p.src) {
		return "", p.errf("unterminated IRI")
	}
	iri := p.src[start:p.pos]
	p.pos++
	return iri, nil
}

// parseStatement parses "subject predicateObjectList ." possibly with
// ';'-separated predicate lists and ','-separated object lists.
func (p *turtleParser) parseStatement() ([]Triple, error) {
	subj, err := p.parseTerm()
	if err != nil {
		return nil, err
	}
	var out []Triple
	for {
		p.skipWS()
		pred, err := p.parsePredicate()
		if err != nil {
			return nil, err
		}
		for {
			obj, err := p.parseTerm()
			if err != nil {
				return nil, err
			}
			t := Triple{subj, pred, obj}
			if err := t.Validate(); err != nil {
				return nil, p.errf("%v", err)
			}
			out = append(out, t)
			p.skipWS()
			if p.peek() == ',' {
				p.pos++
				continue
			}
			break
		}
		p.skipWS()
		switch p.peek() {
		case ';':
			p.pos++
			p.skipWS()
			// A trailing ';' before '.' is legal Turtle.
			if p.peek() == '.' {
				p.pos++
				return out, nil
			}
			continue
		case '.':
			p.pos++
			return out, nil
		default:
			return nil, p.errf("expected ';' or '.', found %q", string(p.peek()))
		}
	}
}

func (p *turtleParser) parsePredicate() (Term, error) {
	p.skipWS()
	if p.peek() == 'a' && p.pos+1 < len(p.src) && isTermBoundary(p.src[p.pos+1]) {
		p.pos++
		return NewIRI(RDFType), nil
	}
	t, err := p.parseTerm()
	if err != nil {
		return Term{}, err
	}
	if !t.IsIRI() {
		return Term{}, p.errf("predicate must be an IRI, got %s", t)
	}
	return t, nil
}

func isTermBoundary(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '<' || c == '"' || c == '_'
}

func (p *turtleParser) parseTerm() (Term, error) {
	p.skipWS()
	switch c := p.peek(); {
	case c == '<':
		iri, err := p.parseIRIRef()
		if err != nil {
			return Term{}, err
		}
		return NewIRI(iri), nil
	case c == '"':
		return p.parseLiteral()
	case c == '_':
		if p.pos+1 >= len(p.src) || p.src[p.pos+1] != ':' {
			return Term{}, p.errf("malformed blank node")
		}
		p.pos += 2
		label := p.parseToken()
		if label == "" {
			return Term{}, p.errf("empty blank node label")
		}
		return NewBlank(label), nil
	case c == '+' || c == '-' || (c >= '0' && c <= '9'):
		tok := p.parseToken()
		if strings.ContainsAny(tok, ".eE") {
			return NewTypedLiteral(tok, XSDDecimal), nil
		}
		return NewTypedLiteral(tok, XSDInteger), nil
	default:
		tok := p.parseToken()
		switch tok {
		case "":
			return Term{}, p.errf("expected term, found %q", string(c))
		case "true", "false":
			return NewTypedLiteral(tok, XSDBoolean), nil
		}
		iri, err := p.prefixes.Expand(tok)
		if err != nil {
			return Term{}, p.errf("%v", err)
		}
		return NewIRI(iri), nil
	}
}

func (p *turtleParser) parseToken() string {
	start := p.pos
	for p.pos < len(p.src) {
		c := rune(p.src[p.pos])
		if isTokenEnd(p.src[p.pos]) {
			// A '.' inside a number or prefixed name is part of the token
			// only when the token goes on after it, so no token ends in
			// '.'.
			if c == '.' && p.pos+1 < len(p.src) && !isTokenEnd(p.src[p.pos+1]) {
				p.pos++
				continue
			}
			break
		}
		p.pos++
	}
	return p.src[start:p.pos]
}

// isTokenEnd reports whether c ends a token (a '.' may not; see
// parseToken).
func isTokenEnd(c byte) bool {
	return unicode.IsSpace(rune(c)) || strings.IndexByte(";,.<>\"#", c) >= 0
}

func (p *turtleParser) parseLiteral() (Term, error) {
	p.pos++ // opening quote
	var sb strings.Builder
	for p.pos < len(p.src) {
		c := p.src[p.pos]
		if c == '\\' && p.pos+1 < len(p.src) {
			p.pos++
			switch p.src[p.pos] {
			case 'n':
				sb.WriteByte('\n')
			case 't':
				sb.WriteByte('\t')
			case '"':
				sb.WriteByte('"')
			case '\\':
				sb.WriteByte('\\')
			default:
				return Term{}, p.errf("unknown escape \\%s", string(p.src[p.pos]))
			}
			p.pos++
			continue
		}
		if c == '"' {
			p.pos++
			lex := sb.String()
			// Optional language tag or datatype.
			if p.peek() == '@' {
				p.pos++
				lang := p.parseToken()
				return NewLangLiteral(lex, lang), nil
			}
			if strings.HasPrefix(p.src[p.pos:], "^^") {
				p.pos += 2
				dt, err := p.parseTerm()
				if err != nil {
					return Term{}, err
				}
				if !dt.IsIRI() || dt.Value == "" {
					return Term{}, p.errf("datatype must be an IRI")
				}
				return NewTypedLiteral(lex, dt.Value), nil
			}
			return NewLiteral(lex), nil
		}
		if c == '\n' {
			p.line++
		}
		sb.WriteByte(c)
		p.pos++
	}
	return Term{}, p.errf("unterminated string literal")
}

// WriteTurtle serialises triples using the given prefixes (may be nil).
// Every document ParseTurtle accepts writes, with the prefixes it
// returns, as text that parses back to the same triples.
func WriteTurtle(ts []Triple, pm PrefixMap) string {
	var sb strings.Builder
	names := sortedKeys(pm)
	for _, name := range names {
		fmt.Fprintf(&sb, "@prefix %s: <%s> .\n", name, pm[name])
	}
	if len(names) > 0 {
		sb.WriteByte('\n')
	}
	term := func(t Term) string {
		switch {
		case t.IsIRI():
			return writeIRI(t.Value, pm, names)
		case t.IsBlank():
			return "_:" + t.Value
		}
		return writeLiteral(t)
	}
	for _, t := range ts {
		pred := term(t.P)
		if t.P.Value == RDFType {
			pred = "a"
		}
		fmt.Fprintf(&sb, "%s %s %s .\n", term(t.S), pred, term(t.O))
	}
	return sb.String()
}

// writeIRI writes an IRI as a prefixed name under the longest namespace
// of pm that yields one the parser reads back as the same IRI, else in
// angle brackets.
func writeIRI(iri string, pm PrefixMap, names []string) string {
	best, bestNS := "", ""
	found := false
	for _, name := range names {
		ns := pm[name]
		if strings.HasPrefix(iri, ns) && (!found || len(ns) > len(bestNS)) && plainName(name, true) && plainName(iri[len(ns):], false) {
			best, bestNS, found = name, ns, true
		}
	}
	if !found {
		return "<" + iri + ">"
	}
	return best + ":" + iri[len(bestNS):]
}

// plainName reports whether s can be a prefix name (prefix) or a local
// name in a prefixed name that reads back as itself: ASCII letters,
// digits, '_' and '-', a prefix starting with a letter, so the name is
// never taken for a number or a blank node.
func plainName(s string, prefix bool) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		letter := c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z'
		if !letter && (prefix && i == 0 || !(c >= '0' && c <= '9' || c == '_' || c == '-')) {
			return false
		}
	}
	return true
}

// writeLiteral writes a literal with the escapes the parser reads: a
// quote and a backslash are escaped, every other byte is written as it
// is.
func writeLiteral(t Term) string {
	s := `"` + strings.NewReplacer(`\`, `\\`, `"`, `\"`).Replace(t.Value) + `"`
	switch {
	case t.Lang != "":
		return s + "@" + t.Lang
	case t.Datatype != "" && t.Datatype != XSDString:
		return s + "^^<" + t.Datatype + ">"
	}
	return s
}

func sortedKeys(pm PrefixMap) []string {
	out := make([]string, 0, len(pm))
	for k := range pm {
		out = append(out, k)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}
