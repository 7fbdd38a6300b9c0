// Command perfbench is the repository's end-to-end benchmark of the
// STARQL-to-alert pipeline: registration, ingest and alerting on seeded
// Siemens turbine workloads, with a separate traced run that times
// each layer's public functions on the same inputs.
//
// Usage (from the repository root; see perfbench/README.md):
//
//	python3 perfbench/run.py --workload fig1_fleet --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"time"
)

// metric is one reported figure with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the final output line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: fig1_fleet, catalog_fleet or durable_churn")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 30, "measuring time of one run in seconds")
	traced := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	w, ok := workloads()[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive")
		os.Exit(2)
	}
	var (
		metrics map[string]metric
		t       *tally
		err     error
	)
	if *traced == 1 {
		metrics, t, err = runTraced(w, *seed, *seconds)
	} else {
		metrics, t, err = runEndToEnd(w, *seed, *seconds)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	for _, n := range t.notes {
		fmt.Printf("FAILED %s\n", n)
	}
	names := make([]string, 0, len(metrics))
	for k := range metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("%-32s %14.4f %s\n", k, metrics[k].Value, metrics[k].Unit)
	}
	for k, m := range metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s is not finite\n", k)
			os.Exit(1)
		}
	}
	out, err := json.Marshal(report{
		Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: metrics,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// info prints one line of run detail (sample counts, rates, digests)
// ahead of the result line.
func info(format string, args ...any) {
	fmt.Printf("# "+format+"\n", args...)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

func taskIDs(w workload) string {
	ids := make([]string, len(w.tasks))
	for i, t := range w.tasks {
		ids[i] = t.ID
	}
	return strings.Join(ids, ",")
}
