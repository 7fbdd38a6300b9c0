package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"sort"

	"repro/internal/relation"
	"repro/internal/siemens"
	"repro/internal/stream"
)

// fleetSeed fixes the static fleet (turbines, assemblies, sensors), so
// registration work is the same for every run seed; the run seed varies
// the measurement streams and where the events are planted.
const fleetSeed = 1

// rampMS is the length of a ramp planted by denseRamps.
const rampMS = 15_000

// sourceASplit is the share of turbines whose sensors report on msmt_a,
// the stream the catalog tasks read.
const sourceASplit = 0.5

// input is one workload's generated measurement stream plus the ground
// truth planted in it. It is built before set-up and never timed.
type input struct {
	gen    *siemens.Generator
	tuples []stream.Timestamped
	routes []string
	// ramps are the planted monotonic ramp-then-failure events.
	ramps []siemens.Event
	// aIdx/aTS list the msmt_a tuples (the stream every task reads) by
	// input index and timestamp, to find the tuple that closes a window.
	aIdx   []int
	aTS    []int64
	spanMS int64
}

func newGenerator(w workload) (*siemens.Generator, error) {
	return siemens.New(siemens.Config{
		Turbines:             w.turbines,
		SensorsPerTurbine:    sensorsPerTurbine,
		AssembliesPerTurbine: 2,
		SourceASplit:         sourceASplit,
		Seed:                 fleetSeed,
	})
}

// generate builds the workload's input from the run seed.
func generate(w workload, seed int64) (*input, error) {
	gen, err := newGenerator(w)
	if err != nil {
		return nil, err
	}
	span := w.eventSeconds() * 1000
	var events []siemens.Event
	if w.denseRamps {
		events = denseRamps(gen, w, seed, span)
	} else {
		events = gen.PlantDefaultEvents(0, span)
	}
	tuples, isA, err := gen.Generate(siemens.StreamConfig{
		FromMS: 0, ToMS: span, StepMS: stepMS, Events: events, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	in := &input{gen: gen, tuples: tuples, routes: make([]string, len(tuples)), spanMS: span}
	for i, a := range isA {
		in.routes[i] = siemens.RouteName(a)
		if a {
			in.aIdx = append(in.aIdx, i)
			in.aTS = append(in.aTS, tuples[i].TS)
		}
	}
	for _, e := range events {
		if e.Kind == siemens.EventMonotonicFailure {
			in.ramps = append(in.ramps, e)
		}
	}
	return in, nil
}

// sourceASensors lists the sensors whose measurements flow on msmt_a,
// the stream the catalog tasks read.
func sourceASensors(gen *siemens.Generator, w workload) []int64 {
	var out []int64
	for tid := 0; tid < int(float64(w.turbines)*sourceASplit); tid++ {
		out = append(out, gen.SensorsOfTurbine(tid)...)
	}
	return out
}

// denseRamps plants back-to-back ramp-then-failure events on every
// source-A sensor at seeded offsets and gaps. Every ramp is longer than
// the monotonic tasks' 10 s window and ends a full window before the
// input does, so some window holding its failure flag sees only ramp
// values before the flag.
func denseRamps(gen *siemens.Generator, w workload, seed int64, span int64) []siemens.Event {
	rng := rand.New(rand.NewSource(seed))
	minGap, maxGap := w.rampGapMS[0]/stepMS, w.rampGapMS[1]/stepMS
	var events []siemens.Event
	for _, sid := range sourceASensors(gen, w) {
		t := int64(rng.Int63n(maxGap)) * stepMS
		for t+rampMS+12_000 <= span {
			events = append(events, siemens.Event{
				Kind: siemens.EventMonotonicFailure, SensorID: sid,
				StartMS: t, EndMS: t + rampMS,
			})
			t += rampMS + (minGap+rng.Int63n(maxGap-minGap))*stepMS
		}
	}
	return events
}

// closingIndex returns the input index of the first msmt_a tuple whose
// timestamp passes windowEnd — the tuple that lets the window operator
// close that window — or -1 when only the final Flush closes it.
func (in *input) closingIndex(windowEnd int64) int {
	k := sort.Search(len(in.aTS), func(i int) bool { return in.aTS[i] > windowEnd })
	if k == len(in.aTS) {
		return -1
	}
	return in.aIdx[k]
}

// digest hashes the generated input: every tuple with its route, and
// every planted ramp.
func (in *input) digest() string {
	h := sha256.New()
	var buf []byte
	for i, el := range in.tuples {
		buf = buf[:0]
		buf = append(buf, in.routes[i]...)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(el.TS))
		for _, v := range el.Row {
			buf = appendValue(buf, v)
		}
		h.Write(buf)
	}
	for _, e := range in.ramps {
		buf = buf[:0]
		for _, x := range []int64{e.SensorID, e.StartMS, e.EndMS} {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(x))
		}
		h.Write(buf)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func appendValue(buf []byte, v relation.Value) []byte {
	buf = append(buf, byte(v.Type))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(v.Int))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v.Float))
	return append(buf, v.String()...)
}
