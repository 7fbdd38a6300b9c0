package sql_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strconv"
	"testing"

	"repro/internal/siemens"
	"repro/internal/sql"
	"repro/internal/starql"
)

// FuzzParseSQL checks that no input panics the parser and that every
// statement it accepts prints as text that parses back and prints the
// same. The corpus is seeded with the T01 task's static and stream
// fleets and with every string literal of the parser tests.
func FuzzParseSQL(f *testing.F) {
	for _, s := range t01Fleet(f) {
		f.Add(s)
	}
	for _, s := range stringLiterals(f, "parser_test.go") {
		f.Add(s)
	}
	// Identifiers in other scripts, and quoted keywords as names.
	f.Add(`SELECT m.température AS 温度, "select" FROM mesures m WHERE ünï = 'é'`)
	f.Fuzz(func(t *testing.T, src string) {
		stmt, err := sql.Parse(src)
		if err != nil {
			return
		}
		text := stmt.String()
		again, err := sql.Parse(text)
		if err != nil {
			t.Fatalf("Parse(%q) prints %q, which does not parse: %v", src, text, err)
		}
		if got := again.String(); got != text {
			t.Fatalf("Parse(%q) prints %q, which reparses as %q", src, text, got)
		}
	})
}

// t01Fleet renders the T01 task's fleet SQL at the small configuration.
func t01Fleet(tb testing.TB) []string {
	gen, err := siemens.New(siemens.SmallConfig())
	if err != nil {
		tb.Fatal(err)
	}
	cat, err := gen.StaticCatalog()
	if err != nil {
		tb.Fatal(err)
	}
	tr := starql.NewTranslator(siemens.TBox(), siemens.Mappings(), cat)
	for _, sc := range siemens.StreamSchemas() {
		tr.DeclareStream(sc)
	}
	tl, err := tr.Translate(starql.MustParse(siemens.Catalog()[0].Query), starql.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := tr.EvalBindings(tl); err != nil {
		tb.Fatal(err)
	}
	var out []string
	for _, stmt := range append(tl.StaticFleet, tl.StreamFleet...) {
		out = append(out, stmt.String())
	}
	if len(tl.StreamFleet) == 0 {
		tb.Fatal("T01 has no stream fleet")
	}
	return out
}

// stringLiterals returns every string literal of a Go source file.
func stringLiterals(tb testing.TB, file string) []string {
	parsed, err := parser.ParseFile(token.NewFileSet(), file, nil, 0)
	if err != nil {
		tb.Fatal(err)
	}
	var out []string
	ast.Inspect(parsed, func(n ast.Node) bool {
		if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
			if s, err := strconv.Unquote(lit.Value); err == nil {
				out = append(out, s)
			}
		}
		return true
	})
	return out
}
