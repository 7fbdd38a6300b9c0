package rdf

import (
	"reflect"
	"runtime"
	"testing"
)

// FuzzParseTurtle checks the Turtle parser on arbitrary input: it never
// panics, allocates in proportion to its input and the triples it
// returns, and every document it accepts writes (WriteTurtle, with the
// parsed prefixes) as text that parses back to the same triples.
func FuzzParseTurtle(f *testing.F) {
	f.Add(sampleTurtle)
	f.Add(`@prefix : <http://e.org/> . :a :b "x\ty\"z\\"@en , "1"^^<http://e.org/t> , -1.5 , false ; a :C .`)
	f.Add(`_:b0 <p> "line
two" . <s> <http://e.org/p> _:b1 , 007 .`)
	f.Add(`@prefix ex: <http://e.org/>. ex:s ex:p ex:o.`)
	f.Fuzz(func(t *testing.T, src string) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		ts, pm, err := ParseTurtle(src)
		runtime.ReadMemStats(&after)
		out := 0
		for _, tr := range ts {
			for _, term := range []Term{tr.S, tr.P, tr.O} {
				out += len(term.Value) + len(term.Datatype) + len(term.Lang)
			}
		}
		if grew, bound := after.TotalAlloc-before.TotalAlloc, uint64(64*(len(src)+out+len(ts))+64<<10); grew > bound {
			t.Fatalf("parsing %d bytes into %d triples allocated %d, bound %d", len(src), len(ts), grew, bound)
		}
		if err != nil {
			return
		}
		text := WriteTurtle(ts, pm)
		again, _, err := ParseTurtle(text)
		if err != nil {
			t.Fatalf("ParseTurtle(%q) writes %q, which does not parse: %v", src, text, err)
		}
		if !reflect.DeepEqual(again, ts) && (len(again) > 0 || len(ts) > 0) {
			t.Fatalf("ParseTurtle(%q) writes %q, which parses as\n%v\nnot\n%v", src, text, again, ts)
		}
	})
}
