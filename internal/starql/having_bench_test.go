package starql

import (
	"testing"

	"repro/internal/rdf"
)

// BenchmarkHavingMatcher measures one evaluation of the Figure 1
// monotonicity condition (EXISTS + guarded two-state FORALL via the
// MONOTONIC.HAVING macro) over a 10-state window: the compiled
// slot-frame program vs the environment-copying tree interpreter.
// Its past single samples are in EXPERIMENTS.md's frozen single-sample
// table; run it with
// `go test -run '^$' -bench HavingMatcher -benchmem ./internal/starql/`.
func BenchmarkHavingMatcher(b *testing.B) {
	q := MustParse(figure1)
	subject := "http://x/sensor/1"
	vals := make([]float64, 10)
	fails := make([]bool, 10)
	for i := range vals {
		vals[i] = float64(10 + i)
	}
	fails[len(fails)-1] = true
	seq := buildSeq(subject, vals, fails)
	binding := Binding{"c2": rdf.NewIRI(subject)}

	b.Run("matcher=compiled", func(b *testing.B) {
		compiled := CompileHaving(q.Having, q.Aggregates)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ok, err := compiled.Eval(seq, binding)
			if err != nil || !ok {
				b.Fatalf("eval = %t, %v", ok, err)
			}
		}
	})
	b.Run("matcher=interpreted", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ok, err := EvalHaving(q.Having, seq, binding, q.Aggregates)
			if err != nil || !ok {
				b.Fatalf("eval = %t, %v", ok, err)
			}
		}
	})
}
