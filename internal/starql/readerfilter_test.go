package starql

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/obda/mapping"
	"repro/internal/relation"
	"repro/internal/sql"
)

// readerFilters are mapping source filters over the S_Msmt stream whose
// SQL semantics a hand-rolled evaluator gets wrong: negation and
// disjunction over NULLs, IS NULL, IN, CASE and function calls.
var readerFilters = []string{
	"fail = 1",
	"NOT (fail = 1)",
	"fail <> 1 OR val > 80",
	"fail IS NULL",
	"fail IS NOT NULL AND NOT (val < 60)",
	"fail IN (0, 2)",
	"CASE WHEN fail = 1 THEN val ELSE 0 END > 60",
	"ABS(val - 70) < 5",
	"COALESCE(fail, 1) = 1",
}

// TestReaderFilterMatchesEngine checks that a stream reader keeps
// exactly the rows the engine selects with the same WHERE: for every
// filter and seeded window with NULLs in the filtered columns, the
// reader's assertions (subject, timestamp, value) equal the rows
// engine.Run returns for SELECT sid, ts, val FROM the window WHERE the
// filter. A filter naming a column the stream lacks fails when the
// reader is built.
func TestReaderFilterMatchesEngine(t *testing.T) {
	const subjectT = "http://x/sensor/{sid}"
	schema := msmtStreamSchema()
	rng := rand.New(rand.NewSource(27))
	for fi, f := range readerFilters {
		where := sql.MustParse("SELECT 1 FROM w WHERE " + f).Where
		pred := fmt.Sprintf("http://x/p%d", fi)
		set, err := mapping.NewSet(mapping.Mapping{
			ID: "m", Pred: pred,
			Subject: mapping.MustParseTemplate(subjectT),
			Object:  mapping.MustParseTemplate("{val}"), ObjectIsData: true,
			Source: mapping.SourceRef{Table: "S_Msmt", IsStream: true, Where: where},
		})
		if err != nil {
			t.Fatal(err)
		}
		sb, err := NewSequenceBuilder(schema, set)
		if err != nil {
			t.Fatal(err)
		}
		r, err := sb.Reader([]string{pred}, nil)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		for trial := 0; trial < 20; trial++ {
			rows := make([]relation.Tuple, rng.Intn(30))
			for i := range rows {
				rows[i] = row(int64(rng.Intn(4)+6), int64(rng.Intn(5))*1000, float64(rng.Intn(40)+50), int64(rng.Intn(3)))
				if rng.Intn(4) == 0 {
					rows[i][3] = relation.Null
				}
				if rng.Intn(6) == 0 {
					rows[i][2] = relation.Null
				}
			}
			seq, err := r.Read(batchOf(rows...).Columns())
			if err != nil {
				t.Fatalf("%s: trial %d: %v", f, trial, err)
			}
			var got []string
			for s := 0; s < seq.Len(); s++ {
				for subj := range seq.subjects {
					for _, v := range seq.Values(s, subj, pred) {
						got = append(got, fmt.Sprintf("%s %d %s", subj, seq.TS(s), v))
					}
				}
			}

			cat := relation.NewCatalog()
			tb, err := cat.Create("w", schema.Tuple)
			if err != nil {
				t.Fatal(err)
			}
			for _, rw := range rows {
				tb.MustInsert(rw)
			}
			_, sel, err := engine.Run(engine.NewExecContext(cat), "SELECT w.sid, w.ts, w.val FROM w WHERE "+f, engine.CatalogResolver(cat))
			if err != nil {
				t.Fatalf("%s: %v", f, err)
			}
			var want []string
			for _, rw := range sel {
				want = append(want, fmt.Sprintf("http://x/sensor/%d %d %s", rw[0].Int, rw[1].Int, rw[2]))
			}
			sort.Strings(got)
			sort.Strings(want)
			if g, w := strings.Join(got, "\n"), strings.Join(want, "\n"); g != w {
				t.Fatalf("%s: trial %d: the reader keeps\n%s\nthe engine selects\n%s", f, trial, g, w)
			}
		}
	}

	set, err := mapping.NewSet(mapping.Mapping{
		ID: "bad", Pred: "http://x/bad",
		Subject: mapping.MustParseTemplate(subjectT),
		Object:  mapping.MustParseTemplate("{val}"), ObjectIsData: true,
		Source: mapping.SourceRef{Table: "S_Msmt", IsStream: true,
			Where: sql.MustParse("SELECT 1 FROM w WHERE nosuch = 1").Where},
	})
	if err != nil {
		t.Fatal(err)
	}
	sb, err := NewSequenceBuilder(schema, set)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sb.Reader(nil, nil); err == nil {
		t.Fatal("a filter on a column the stream lacks built a reader")
	}
}
