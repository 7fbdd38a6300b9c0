package main

import "testing"

// TestInputDigestFollowsSeed pins seeded input generation: the same
// seed yields an identical input, a different seed a different one, on
// every workload.
func TestInputDigestFollowsSeed(t *testing.T) {
	for name, w := range workloads() {
		a, err := generate(w, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		b, err := generate(w, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		c, err := generate(w, 2)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if a.digest() != b.digest() {
			t.Errorf("%s: seed 1 gave two different inputs", name)
		}
		if a.digest() == c.digest() {
			t.Errorf("%s: seeds 1 and 2 gave the same input", name)
		}
	}
}

// TestDenseRampsAreDetectable checks the planted ground truth the gate
// relies on: every dense ramp outlasts the monotonic tasks' window and
// raises its failure flag before the input ends.
func TestDenseRampsAreDetectable(t *testing.T) {
	w := workloads()["fig1_fleet"]
	in, err := generate(w, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(in.ramps) == 0 {
		t.Fatal("no ramps planted")
	}
	for _, e := range in.ramps {
		flags := failureTimes(e)
		if len(flags) == 0 || e.EndMS-e.StartMS <= 10_000 || flags[len(flags)-1] >= in.spanMS {
			t.Fatalf("ramp %+v cannot alert a 10 s window", e)
		}
	}
}

// TestClosingIndex checks the tuple that closes a window is the first
// msmt_a tuple past the window's end.
func TestClosingIndex(t *testing.T) {
	in, err := generate(workloads()["catalog_fleet"], 1)
	if err != nil {
		t.Fatal(err)
	}
	idx := in.closingIndex(5_000)
	if idx < 0 || in.routes[idx] != "msmt_a" || in.tuples[idx].TS != 5_000+stepMS {
		t.Fatalf("closing index %d", idx)
	}
	for i := 0; i < idx; i++ {
		if in.routes[i] == "msmt_a" && in.tuples[i].TS > 5_000 {
			t.Fatalf("tuple %d passes the window end before the closing tuple", i)
		}
	}
	if got := in.closingIndex(in.spanMS); got != -1 {
		t.Fatalf("window ending at the input's end closed by tuple %d", got)
	}
}
