package starql

import (
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/relation"
	"repro/internal/siemens"
)

// fig1Task is one Figure 1 monotonic task as a window sink holds it.
type fig1Task struct {
	reader   *StreamReader
	having   *CompiledHaving
	bindings []Binding
}

// figure1Tasks builds the five Figure 1 monotonic tasks over msmt_a at
// 40 turbines, as a window sink does at registration: each reader is
// restricted to its HAVING's predicates and to its bindings' subjects.
func figure1Tasks(t *testing.T, gen *siemens.Generator) []fig1Task {
	t.Helper()
	cat, err := gen.StaticCatalog()
	if err != nil {
		t.Fatal(err)
	}
	set := siemens.Mappings()
	sb, err := NewSequenceBuilder(siemens.StreamSchemas()[0], set)
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTranslator(siemens.TBox(), set, cat)
	var tasks []fig1Task
	for _, task := range siemens.Catalog() {
		if !strings.Contains(task.ID, "_mon_") {
			continue
		}
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
		var subjects []string
		for _, b := range bindings {
			for _, term := range b {
				if term.IsIRI() {
					subjects = append(subjects, term.Value)
				}
			}
		}
		having := CompileHaving(q.Having, q.Aggregates)
		r, err := sb.Reader(having.Preds(), subjects)
		if err != nil {
			t.Fatal(err)
		}
		tasks = append(tasks, fig1Task{r, having, bindings})
	}
	if len(tasks) != 5 {
		t.Fatalf("%d monotonic tasks, want 5", len(tasks))
	}
	return tasks
}

// figure1Window is the msmt_a window of BenchmarkWindowSink (sampled
// every 500 ms, with the planted ramp) cut at toMS.
func figure1Window(t *testing.T, gen *siemens.Generator, toMS int64) *relation.ColBatch {
	t.Helper()
	tuples, routeA, err := gen.Generate(siemens.StreamConfig{
		FromMS: 0, ToMS: toMS, StepMS: 500, Seed: 1,
		Events: gen.PlantDefaultEvents(-10_000, 10_000),
	})
	if err != nil {
		t.Fatal(err)
	}
	var rows []relation.Tuple
	for i, el := range tuples {
		if routeA[i] {
			rows = append(rows, el.Row)
		}
	}
	return relation.Transpose(rows)
}

// TestReadAllocationPerElement pins what reading a window costs: the
// five Figure 1 readers over a 320-row and a 3,200-row window make the
// same number of allocations, and the bytes they allocate grow by at
// most 8 per sequence element (an element is a reference to its row,
// not a copy of its value).
func TestReadAllocationPerElement(t *testing.T) {
	if testing.Short() {
		t.Skip("measures allocations with testing.Benchmark")
	}
	cfg := siemens.SmallConfig()
	cfg.Turbines = 40
	gen, err := siemens.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tasks := figure1Tasks(t, gen)
	type cost struct {
		rows, elems   int
		bytes, allocs int64
	}
	measure := func(toMS int64) cost {
		cb := figure1Window(t, gen, toMS)
		c := cost{rows: cb.Len()}
		for _, task := range tasks {
			seq, err := task.reader.Read(cb)
			if err != nil {
				t.Fatal(err)
			}
			if n := len(seq.runs); n > 0 {
				c.elems += int(seq.runs[n-1])
			}
		}
		res := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, task := range tasks {
					if _, err := task.reader.Read(cb); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
		c.bytes, c.allocs = res.AllocedBytesPerOp(), res.AllocsPerOp()
		return c
	}
	small, large := measure(1_000), measure(10_000)
	if small.rows != 320 || large.rows != 3200 || large.elems <= small.elems {
		t.Fatalf("windows of %d and %d rows with %d and %d elements, want 320 and 3,200 rows",
			small.rows, large.rows, small.elems, large.elems)
	}
	perElem := float64(large.bytes-small.bytes) / float64(large.elems-small.elems)
	t.Logf("320 rows: %d elements, %d B, %d allocs; 3,200 rows: %d elements, %d B, %d allocs; %.1f B per element",
		small.elems, small.bytes, small.allocs, large.elems, large.bytes, large.allocs, perElem)
	if small.allocs != large.allocs {
		t.Errorf("Read allocations grow with the window: %d at 320 rows, %d at 3,200", small.allocs, large.allocs)
	}
	if perElem > 8 {
		t.Errorf("Read allocates %.1f B per sequence element, want at most 8", perElem)
	}
}

// TestConcurrentReadsOfOneWindow reads one shared window from several
// goroutines at once, as parallel window sinks do: every sequence
// aliases the same columns, and every goroutine's verdicts must equal a
// sequential evaluation's. Run it under -race.
func TestConcurrentReadsOfOneWindow(t *testing.T) {
	cfg := siemens.SmallConfig()
	cfg.Turbines = 8
	gen, err := siemens.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tasks := figure1Tasks(t, gen)
	cb := figure1Window(t, gen, 10_000)
	verdicts := func() ([]bool, error) {
		var out []bool
		for _, task := range tasks {
			seq, err := task.reader.Read(cb)
			if err != nil {
				return nil, err
			}
			for _, b := range task.bindings {
				ok, err := task.having.Eval(seq, b)
				if err != nil {
					return nil, err
				}
				out = append(out, ok)
			}
		}
		return out, nil
	}
	want, err := verdicts()
	if err != nil {
		t.Fatal(err)
	}
	alerts := 0
	for _, ok := range want {
		if ok {
			alerts++
		}
	}
	if alerts == 0 || alerts == len(want) {
		t.Fatalf("%d of %d bindings alert; the window should separate them", alerts, len(want))
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 5; round++ {
				got, err := verdicts()
				if err != nil {
					t.Error(err)
					return
				}
				if !slices.Equal(got, want) {
					t.Errorf("concurrent verdicts %v, sequential %v", got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}
