// Package sql implements the SQL(+) dialect of ExaStream: standard SQL
// SELECT queries extended with stream references and window specifications
// ("FROM STREAM s [RANGE 10000 SLIDE 1000]"), which is the target language
// of the STARQL-to-SQL(+) translator.
package sql

import (
	"fmt"
	"strings"
	"unicode"
)

// TokKind classifies lexical tokens.
type TokKind uint8

const (
	// TokEOF marks the end of input.
	TokEOF TokKind = iota
	// TokIdent is an identifier or unquoted keyword.
	TokIdent
	// TokNumber is an integer or decimal literal.
	TokNumber
	// TokString is a single-quoted string literal.
	TokString
	// TokOp is an operator or punctuation token.
	TokOp
)

// Token is one lexical token with its source position.
type Token struct {
	Kind TokKind
	Text string
	Pos  int
}

// String renders the token for error messages.
func (t Token) String() string {
	if t.Kind == TokEOF {
		return "end of input"
	}
	return fmt.Sprintf("%q", t.Text)
}

// lexer tokenises SQL(+) input.
type lexer struct {
	src    string
	pos    int
	tokens []Token
}

// Lex splits src into tokens. Keywords are returned as TokIdent; the
// parser matches them case-insensitively.
func Lex(src string) ([]Token, error) {
	l := &lexer{src: src}
	if err := l.run(); err != nil {
		return nil, err
	}
	return l.tokens, nil
}

var multiOps = []string{"<=", ">=", "<>", "!=", "||"}

func (l *lexer) run() error {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			l.pos++
		case c == '-' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '-':
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
		case c == '\'':
			if err := l.lexString(); err != nil {
				return err
			}
		case c >= '0' && c <= '9':
			l.lexNumber()
		case isIdentStart(rune(c)):
			if err := l.lexIdent(); err != nil {
				return err
			}
		default:
			if op := l.matchMultiOp(); op != "" {
				l.tokens = append(l.tokens, Token{TokOp, op, l.pos})
				l.pos += len(op)
				break
			}
			if strings.ContainsRune("()[],.;*+-/%<>=?", rune(c)) {
				l.tokens = append(l.tokens, Token{TokOp, string(c), l.pos})
				l.pos++
				break
			}
			return fmt.Errorf("sql: unexpected character %q at offset %d", string(c), l.pos)
		}
	}
	l.tokens = append(l.tokens, Token{TokEOF, "", l.pos})
	return nil
}

func (l *lexer) matchMultiOp() string {
	for _, op := range multiOps {
		if strings.HasPrefix(l.src[l.pos:], op) {
			return op
		}
	}
	return ""
}

func isIdentStart(c rune) bool {
	return unicode.IsLetter(c) || c == '_' || c == '"'
}

func isIdentPart(c rune) bool {
	return unicode.IsLetter(c) || unicode.IsDigit(c) || c == '_'
}

func (l *lexer) lexIdent() error {
	start := l.pos
	if l.src[l.pos] == '"' {
		// Quoted identifier: any bytes up to the closing quote.
		end := strings.IndexByte(l.src[start+1:], '"')
		if end < 0 {
			return fmt.Errorf("sql: unterminated quoted identifier at offset %d", start)
		}
		l.pos = start + 1 + end + 1
		l.tokens = append(l.tokens, Token{TokIdent, l.src[start+1 : start+1+end], start})
		return nil
	}
	for l.pos < len(l.src) && isIdentPart(rune(l.src[l.pos])) {
		l.pos++
	}
	l.tokens = append(l.tokens, Token{TokIdent, l.src[start:l.pos], start})
	return nil
}

// plainIdent reports whether s lexes back as itself, one unquoted
// identifier; the lexer reads identifiers byte by byte.
func plainIdent(s string) bool {
	if s == "" || s[0] == '"' || !isIdentStart(rune(s[0])) {
		return false
	}
	for i := 1; i < len(s); i++ {
		if !isIdentPart(rune(s[i])) {
			return false
		}
	}
	return true
}

// quoteIdent renders an identifier so that it lexes back as itself:
// plain when it is, else between double quotes. A name holding a double
// quote has no rendering; no parsed name holds one.
func quoteIdent(s string) string {
	if plainIdent(s) {
		return s
	}
	return `"` + s + `"`
}

func (l *lexer) lexNumber() {
	start := l.pos
	seenDot := false
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == '.' && !seenDot {
			seenDot = true
			l.pos++
			continue
		}
		if c < '0' || c > '9' {
			break
		}
		l.pos++
	}
	l.tokens = append(l.tokens, Token{TokNumber, l.src[start:l.pos], start})
}

func (l *lexer) lexString() error {
	start := l.pos
	l.pos++ // opening quote
	var sb strings.Builder
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == '\'' {
			// '' escapes a quote.
			if l.pos+1 < len(l.src) && l.src[l.pos+1] == '\'' {
				sb.WriteByte('\'')
				l.pos += 2
				continue
			}
			l.pos++
			l.tokens = append(l.tokens, Token{TokString, sb.String(), start})
			return nil
		}
		sb.WriteByte(c)
		l.pos++
	}
	return fmt.Errorf("sql: unterminated string literal at offset %d", start)
}
