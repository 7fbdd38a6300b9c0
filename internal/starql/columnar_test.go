package starql

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/obda/mapping"
	"repro/internal/relation"
	"repro/internal/siemens"
	"repro/internal/sql"
	"repro/internal/stream"
)

// diffSequence compares a flat sequence with the reference sequence it
// must equal, restricted to the predicates in preds (nil = all). It
// checks the state timestamps, every (state, subject, predicate) value
// list of the reference against the flat one, and every value list of
// the flat sequence against the reference, so neither side may hold an
// assertion the other lacks. Values compare as typed values, in order.
func diffSequence(ref *refSequence, got *Sequence, preds map[string]bool) error {
	if got.Len() != len(ref.States) {
		return fmt.Errorf("states: flat %d, reference %d", got.Len(), len(ref.States))
	}
	for i, st := range ref.States {
		if got.TS(i) != st.TS {
			return fmt.Errorf("state %d: flat ts %d, reference ts %d", i, got.TS(i), st.TS)
		}
		for subj, props := range st.props {
			for pred, want := range props {
				if preds != nil && !preds[pred] {
					continue
				}
				if have := got.Values(i, subj, pred); !sameValues(have, want) {
					return fmt.Errorf("state %d (%s, %s): flat %v, reference %v", i, subj, pred, have, want)
				}
			}
		}
	}
	// Reverse direction: walk the flat runs themselves, finding each
	// element's state from its visiting position.
	for subj, si := range got.subjects {
		for pi, pred := range got.preds {
			if preds != nil && !preds[pred] {
				return fmt.Errorf("flat sequence holds unrequested predicate %s", pred)
			}
			k := int(si)*len(got.preds) + pi
			if k+1 >= len(got.runs) {
				continue
			}
			fan := int32(len(got.plans[pi]))
			lo, hi := int(got.runs[k]), int(got.runs[k+1])
			byState := map[int][]relation.Value{}
			for j := lo; j < hi; j++ {
				if j > lo && got.elems[j-1] >= got.elems[j] {
					return fmt.Errorf("run (%s, %s): elements out of order", subj, pred)
				}
				pos := got.elems[j] / fan
				state := sort.Search(got.Len(), func(s int) bool { return got.starts[s+1] > pos })
				byState[state] = append(byState[state], got.value(pi, j))
			}
			for state, have := range byState {
				if want := ref.States[state].Values(subj, pred); !sameValues(have, want) {
					return fmt.Errorf("state %d (%s, %s): flat %v, reference %v", state, subj, pred, have, want)
				}
			}
		}
	}
	return nil
}

func sameValues(a, b []relation.Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameValue(a[i], b[i]) {
			return false
		}
	}
	return true
}

// sameValue reports whether two values are the same typed value; a NaN
// is the same as a NaN.
func sameValue(a, b relation.Value) bool {
	if a.Type == relation.TFloat && b.Type == relation.TFloat && a.Float != a.Float && b.Float != b.Float {
		return true
	}
	return a == b
}

// subjectList turns a subject filter into the reader's subject list.
func subjectList(subjects map[string]bool) []string {
	if subjects == nil {
		return nil
	}
	out := make([]string, 0, len(subjects))
	for s := range subjects {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// TestBuildColumnarMatchesBuild is the sequence-builder differential:
// the flat reader over a window batch must hold exactly the assertions
// of the map-based reference builder, for random batches (sorted and
// unsorted by timestamp), subject filters, predicate restrictions,
// NULL-bearing rows, and empty windows.
func TestBuildColumnarMatchesBuild(t *testing.T) {
	set := testMappings(t)
	sb, err := NewSequenceBuilder(msmtStreamSchema(), set.set)
	if err != nil {
		t.Fatal(err)
	}
	s7 := "http://siemens.com/data/sensor/7"
	rng := rand.New(rand.NewSource(31))
	randRows := func(n int) []relation.Tuple {
		rows := make([]relation.Tuple, n)
		for i := range rows {
			rows[i] = row(int64(rng.Intn(4)+6), int64(rng.Intn(5))*1000, float64(rng.Intn(40)+50), int64(rng.Intn(2)))
			if rng.Intn(6) == 0 {
				rows[i][2] = relation.Null // NULL measurement value
			}
		}
		return rows
	}
	subjectsPool := []map[string]bool{nil, {s7: true}, {}}
	predsPool := []map[string]bool{nil, {sieNS + "hasValue": true}, {sieNS + "showsFailure": true}, {}}
	for trial := 0; trial < 80; trial++ {
		rows := randRows(rng.Intn(30))
		if rng.Intn(2) == 0 {
			sort.SliceStable(rows, func(i, j int) bool { return rows[i][1].Int < rows[j][1].Int })
		}
		batch := batchOf(rows...)
		if rng.Intn(2) == 0 {
			batch.Columns() // pre-materialise the shared transpose
		}
		subjects := subjectsPool[rng.Intn(len(subjectsPool))]
		preds := predsPool[rng.Intn(len(predsPool))]
		want, err1 := sb.buildRef(batch, subjects)
		var got *Sequence
		var err2 error
		if preds == nil {
			got, err2 = sb.BuildColumnar(batch, subjects)
		} else {
			var r *StreamReader
			r, err2 = sb.Reader(subjectList(preds), subjectList(subjects))
			if err2 == nil {
				got, err2 = r.Read(batch.Columns())
			}
		}
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("trial %d: error disagreement: reference=%v flat=%v", trial, err1, err2)
		}
		if err1 != nil {
			continue
		}
		if err := diffSequence(want, got, preds); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

// TestBuildColumnarErrorParity pins the timestamp-error contract: a row
// whose timestamp column is not an integer fails both builders.
func TestBuildColumnarErrorParity(t *testing.T) {
	set := testMappings(t)
	sb, err := NewSequenceBuilder(msmtStreamSchema(), set.set)
	if err != nil {
		t.Fatal(err)
	}
	bad := batchOf(
		row(7, 1000, 70, 0),
		relation.Tuple{relation.Int(7), relation.Null, relation.Float(70), relation.Int(0)},
	)
	if _, err := sb.Build(bad, nil); err == nil {
		t.Fatal("row build accepted a NULL timestamp")
	}
	if _, err := sb.BuildColumnar(bad, nil); err == nil {
		t.Fatal("columnar build accepted a NULL timestamp")
	}
}

// TestBuildColumnarGatheredBatch extends the differential to the
// engine boundary: the window sink feeds the reader the compacted
// columns of a window result (typed vectors gathered by selection
// index), never a transposed row batch. For random windows, random
// selections (empty, partial, reordered, full) and subject filters, the
// sequence read from the gathered columns must equal the reference
// built over the equivalent rows. Trials vary the column layouts too:
// integer vs TTime timestamps (both typed), a value column degraded to
// the generic layout, and a subject column degraded to the generic
// layout (the string-keyed probe instead of the int64 one).
func TestBuildColumnarGatheredBatch(t *testing.T) {
	set := testMappings(t)
	sb, err := NewSequenceBuilder(msmtStreamSchema(), set.set)
	if err != nil {
		t.Fatal(err)
	}
	s7 := "http://siemens.com/data/sensor/7"
	s07 := "http://siemens.com/data/sensor/07" // rendered only by the string "07"
	subjectsPool := []map[string]bool{nil, {s7: true}, {}, {s7: true, "http://siemens.com/data/sensor/8": true}, {s7: true, s07: true}}
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 120; trial++ {
		n := rng.Intn(30)
		intTS, generic, genericSubj := rng.Intn(2) == 0, rng.Intn(4) == 0, rng.Intn(4) == 0
		rows := make([]relation.Tuple, n)
		for i := range rows {
			rows[i] = row(int64(rng.Intn(4)+6), int64(rng.Intn(5))*1000, float64(rng.Intn(40)+50), int64(rng.Intn(2)))
			if intTS {
				rows[i][1] = relation.Int(rows[i][1].Int)
			}
			switch {
			case rng.Intn(6) == 0:
				rows[i][2] = relation.Null
			case generic && rng.Intn(2) == 0:
				rows[i][2] = relation.Int(int64(rng.Intn(40) + 50))
			}
			if genericSubj && rng.Intn(3) == 0 {
				rows[i][0] = relation.String_(fmt.Sprint(rows[i][0].Int))
				if rng.Intn(2) == 0 {
					rows[i][0] = relation.String_("0" + rows[i][0].Str)
				}
			}
		}
		var idxs []int
		switch rng.Intn(4) {
		case 0: // zero selection
		case 1: // full selection
			for i := range rows {
				idxs = append(idxs, i)
			}
		default: // partial, in arbitrary order
			for _, i := range rng.Perm(n) {
				if rng.Intn(2) == 0 {
					idxs = append(idxs, i)
				}
			}
		}
		src := relation.Transpose(rows)
		cols := make([]*relation.Vector, src.Arity())
		for j := range cols {
			cols[j] = src.Col(j).Gather(idxs)
		}
		gathered := relation.NewColBatch(cols, len(idxs))
		picked := make([]relation.Tuple, len(idxs))
		for k, i := range idxs {
			picked[k] = rows[i]
		}
		subjects := subjectsPool[rng.Intn(len(subjectsPool))]
		want, err1 := sb.buildRef(batchOf(picked...), subjects)
		r, err := sb.Reader(nil, subjectList(subjects))
		if err != nil {
			t.Fatal(err)
		}
		got, err2 := r.Read(gathered)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("trial %d: error disagreement: reference=%v flat=%v", trial, err1, err2)
		}
		if err1 != nil {
			continue
		}
		if err := diffSequence(want, got, nil); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

// TestBuildColumnarMultiColumnSubject covers the render path of bound
// subjects: a subject template over two columns is not inverted, so the
// reader renders each distinct key once per window and looks the IRI up
// among the bound subjects.
func TestBuildColumnarMultiColumnSubject(t *testing.T) {
	w := newTestMappings(t)
	pair := sieNS + "pairValue"
	if err := w.set.Add(mapping.Mapping{
		ID: "pair", Pred: pair,
		Subject: mapping.MustParseTemplate("http://x/{sid}-{fail}"),
		Object:  mapping.MustParseTemplate("{val}"), ObjectIsData: true,
		Source: mapping.SourceRef{Table: "S_Msmt", IsStream: true},
	}); err != nil {
		t.Fatal(err)
	}
	sb, err := NewSequenceBuilder(msmtStreamSchema(), w.set)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	for _, subjects := range []map[string]bool{nil, {"http://x/7-1": true, "http://x/8-0": true}} {
		for trial := 0; trial < 20; trial++ {
			rows := make([]relation.Tuple, rng.Intn(25))
			for i := range rows {
				rows[i] = row(int64(rng.Intn(3)+6), int64(rng.Intn(4))*1000, float64(rng.Intn(40)), int64(rng.Intn(2)))
			}
			batch := batchOf(rows...)
			want, err := sb.buildRef(batch, subjects)
			if err != nil {
				t.Fatal(err)
			}
			r, err := sb.Reader([]string{pair}, subjectList(subjects))
			if err != nil {
				t.Fatal(err)
			}
			got, err := r.Read(batch.Columns())
			if err != nil {
				t.Fatal(err)
			}
			if err := diffSequence(want, got, map[string]bool{pair: true}); err != nil {
				t.Fatalf("subjects %v trial %d: %v", subjects, trial, err)
			}
		}
	}
}

// TestBuildColumnarAlertSetsMatchOracle is the end-to-end sequence
// differential over the ten Siemens test sets: for every task, every
// window of a seeded msmt_a stream and every binding, the task's flat
// reader (restricted to the HAVING's predicates and the bindings'
// subjects) evaluated by the compiled matcher must alert exactly when
// the map-based reference sequence evaluated by the reference HAVING
// interpreter does.
func TestBuildColumnarAlertSetsMatchOracle(t *testing.T) {
	gen, err := siemens.New(siemens.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	cat, err := gen.StaticCatalog()
	if err != nil {
		t.Fatal(err)
	}
	set := siemens.Mappings()
	schema := siemens.StreamSchemas()[0]
	sb, err := NewSequenceBuilder(schema, set)
	if err != nil {
		t.Fatal(err)
	}
	const toMS = 40_000
	tuples, routeA, err := gen.Generate(siemens.StreamConfig{
		FromMS: 0, ToMS: toMS, StepMS: 500, Seed: 3,
		Events: gen.PlantDefaultEvents(0, toMS),
	})
	if err != nil {
		t.Fatal(err)
	}
	var msmtA []stream.Timestamped
	for i, el := range tuples {
		if routeA[i] {
			msmtA = append(msmtA, el)
		}
	}
	tr := NewTranslator(siemens.TBox(), set, cat)
	checked := map[string]bool{}
	evals, alerts := 0, 0
	for si, tasks := range siemens.TestSets() {
		for _, task := range tasks {
			if checked[task.ID] {
				continue
			}
			checked[task.ID] = true
			q, err := Parse(task.Query)
			if err != nil {
				t.Fatal(err)
			}
			tl, err := tr.Translate(q, Options{})
			if err != nil {
				t.Fatal(err)
			}
			bindings, err := tr.EvalBindings(tl)
			if err != nil {
				t.Fatal(err)
			}
			subjects := map[string]bool{}
			for _, b := range bindings {
				for _, term := range b {
					if term.IsIRI() {
						subjects[term.Value] = true
					}
				}
			}
			compiled := CompileHaving(q.Having, q.Aggregates)
			reader, err := sb.Reader(compiled.Preds(), subjectList(subjects))
			if err != nil {
				t.Fatal(err)
			}
			op, err := stream.NewTimeSlidingWindow(tl.Window)
			if err != nil {
				t.Fatal(err)
			}
			var batches []stream.Batch
			for _, el := range msmtA {
				batches = append(batches, op.Push(el)...)
			}
			batches = append(batches, op.Flush()...)
			for _, b := range batches {
				if b.Len() == 0 {
					continue
				}
				ref, err := sb.buildRef(b, subjects)
				if err != nil {
					t.Fatal(err)
				}
				oracle := flatten(ref)
				flat, err := reader.Read(b.Columns())
				if err != nil {
					t.Fatal(err)
				}
				for bi, binding := range bindings {
					want, errW := EvalHaving(q.Having, oracle, binding, q.Aggregates)
					got, errG := compiled.Eval(flat, binding)
					if (errW == nil) != (errG == nil) || want != got {
						t.Fatalf("set %d task %s window %d binding %d: flat=%t (%v) oracle=%t (%v)",
							si+1, task.ID, b.End, bi, got, errG, want, errW)
					}
					evals++
					if got {
						alerts++
					}
				}
			}
		}
	}
	if len(checked) != len(siemens.Catalog()) || evals == 0 || alerts == 0 {
		t.Fatalf("vacuous differential: %d tasks, %d evaluations, %d alerts", len(checked), evals, alerts)
	}
	t.Logf("%d tasks, %d evaluations, %d alerts", len(checked), evals, alerts)
}

// TestBuildColumnarLayoutPaths extends the sequence differential to
// every path by which an element finds its value: windows served as
// column-log views (offset by a dropped prefix) whose value column holds
// NULLs and NaNs and mixes INTEGER and REAL rows, rows out of timestamp
// order, two mappings of one predicate reading different columns, a
// stream class mapping, an object property whose IRI is rendered per
// row, and states in which no row survives the filters (rows of an
// unbound sensor, and failure rows at timestamps where nothing failed).
func TestBuildColumnarLayoutPaths(t *testing.T) {
	w := newTestMappings(t)
	const sensorT = "http://siemens.com/data/sensor/{sid}"
	for _, m := range []mapping.Mapping{
		{ // a second hasValue mapping, over the fail column
			ID: "hasValueFail", Pred: sieNS + "hasValue",
			Subject: mapping.MustParseTemplate(sensorT),
			Object:  mapping.MustParseTemplate("{fail}"), ObjectIsData: true,
			Source: mapping.SourceRef{Table: "S_Msmt", IsStream: true,
				Where: sql.Bin(">", sql.Col("sid"), sql.Lit(relation.Int(7)))},
		},
		{
			ID: "measured", Pred: sieNS + "Measured", IsClass: true,
			Subject: mapping.MustParseTemplate(sensorT),
			Source:  mapping.SourceRef{Table: "S_Msmt", IsStream: true},
		},
		{
			ID: "flaggedAs", Pred: sieNS + "flaggedAs",
			Subject: mapping.MustParseTemplate(sensorT),
			Object:  mapping.MustParseTemplate("http://x/flag/{fail}"),
			Source:  mapping.SourceRef{Table: "S_Msmt", IsStream: true},
		},
	} {
		if err := w.set.Add(m); err != nil {
			t.Fatal(err)
		}
	}
	sb, err := NewSequenceBuilder(msmtStreamSchema(), w.set)
	if err != nil {
		t.Fatal(err)
	}
	sensor := func(sid int) string { return fmt.Sprintf("http://siemens.com/data/sensor/%d", sid) }
	subjectsPool := []map[string]bool{nil, {sensor(7): true}, {sensor(7): true, sensor(8): true, sensor(9): true}}
	allPreds := []string{sieNS + "hasValue", sieNS + "showsFailure", sieNS + "Measured", sieNS + "flaggedAs"}
	rng := rand.New(rand.NewSource(41))
	checked := map[string]bool{}
	for trial := 0; trial < 150; trial++ {
		var log relation.ColLog
		drop := rng.Intn(5)
		n := rng.Intn(40)
		rows := make([]relation.Tuple, drop+n)
		for i := range rows {
			ts := int64(rng.Intn(6)) * 1000
			sid := int64(rng.Intn(3) + 7)
			fail := int64(0)
			if ts >= 3000 && rng.Intn(3) == 0 {
				fail = 1 // nothing fails before 3 s
			}
			if rng.Intn(8) == 0 {
				sid = 99 // never a bound subject
			}
			rows[i] = row(sid, ts, float64(rng.Intn(40)+50), fail)
			switch rng.Intn(8) {
			case 0:
				rows[i][2] = relation.Null
			case 1:
				rows[i][2] = relation.Float(math.NaN())
			case 2, 3:
				rows[i][2] = relation.Int(int64(rng.Intn(40) + 50))
			}
			log.Append(rows[i])
		}
		log.DropPrefix(drop)
		cb := log.View(0, n)
		subjects := subjectsPool[rng.Intn(len(subjectsPool))]
		var preds []string
		for _, p := range allPreds {
			if rng.Intn(3) != 0 {
				preds = append(preds, p)
			}
		}
		r, err := sb.Reader(preds, subjectList(subjects))
		if err != nil {
			t.Fatal(err)
		}
		want, err1 := sb.buildRef(batchOf(rows[drop:]...), subjects)
		got, err2 := r.Read(cb)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("trial %d: error disagreement: reference=%v flat=%v", trial, err1, err2)
		}
		if err1 != nil {
			continue
		}
		predSet := map[string]bool{}
		for _, p := range preds {
			predSet[p] = true
		}
		if err := diffSequence(want, got, predSet); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if got.order != nil {
			checked["unordered"] = true
		}
		if cb.Arity() > 2 && cb.Col(2).ElemType() == relation.TNull {
			checked["mixed value column"] = true
		}
		for i := 0; i < got.Len(); i++ {
			if len(got.Values(i, sensor(8), sieNS+"hasValue")) > 1 {
				checked["two plans of one predicate"] = true
			}
			if len(got.Values(i, sensor(7), sieNS+"flaggedAs")) > 0 {
				checked["rendered object"] = true
			}
			if len(got.Values(i, sensor(7), sieNS+"Measured")) > 0 {
				checked["class"] = true
			}
		}
	}
	if len(checked) != 5 {
		t.Fatalf("trials reached only %v", checked)
	}
}
