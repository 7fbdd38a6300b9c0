package siemens

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/relation"
	"repro/internal/stream"
)

// EventKind classifies planted stream patterns.
type EventKind uint8

const (
	// EventMonotonicFailure is a monotonic value ramp that ends in a
	// failure flag — the pattern Figure 1's query detects.
	EventMonotonicFailure EventKind = iota
	// EventThreshold is a spike above the sensor's alarm threshold.
	EventThreshold
	// EventCorrelatedPair makes two sensors move together for a period.
	EventCorrelatedPair
)

// Event is one planted pattern: the ground truth the diagnostic queries
// must detect.
type Event struct {
	Kind     EventKind
	SensorID int64
	PairID   int64 // second sensor of a correlated pair
	StartMS  int64
	EndMS    int64
}

// StreamConfig controls a generation run.
type StreamConfig struct {
	FromMS, ToMS int64
	StepMS       int64 // sampling period per sensor
	// Sensors restricts generation to the given sensor ids (nil = all,
	// which at full fleet scale is a lot of tuples).
	Sensors []int64
	// Events to plant. Events referencing sensors outside the Sensors
	// set are ignored.
	Events []Event
	// NoiseAmp scales the random noise (default 1.0).
	NoiseAmp float64
	Seed     int64
}

// Validate checks a stream configuration.
func (c StreamConfig) Validate() error {
	if c.ToMS <= c.FromMS {
		return fmt.Errorf("siemens: empty time range")
	}
	if c.StepMS <= 0 {
		return fmt.Errorf("siemens: StepMS must be positive")
	}
	for _, e := range c.Events {
		if e.EndMS <= e.StartMS {
			return fmt.Errorf("siemens: event with empty interval")
		}
	}
	return nil
}

// baseline is a sensor's nominal value level per kind.
func (g *Generator) baseline(sid int64) float64 {
	switch g.SensorKind(sid) {
	case "temperature":
		return 70
	case "pressure":
		return 5
	case "vibration":
		return 0.5
	case "flow":
		return 120
	case "speed":
		return 3000
	default:
		return 1
	}
}

// Threshold returns the alarm threshold of a sensor (what the catalog's
// threshold tasks test against).
func (g *Generator) Threshold(sid int64) float64 { return g.baseline(sid) * 1.5 }

// Generate produces the measurement tuples of both streams for the
// configured interval, ordered by timestamp. The second return value
// routes each tuple: true = msmt_a, false = msmt_b.
//
// Signal model per sensor: baseline + slow sinusoidal drift + Gaussian
// noise, overridden inside planted events by the event's pattern.
func (g *Generator) Generate(cfg StreamConfig) ([]stream.Timestamped, []bool, error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	noise := cfg.NoiseAmp
	if noise == 0 {
		noise = 1.0
	}
	sensors := cfg.Sensors
	if sensors == nil {
		sensors = make([]int64, g.SensorCount())
		for i := range sensors {
			sensors[i] = int64(i + 1)
		}
	}
	// Index events by sensor.
	events := map[int64][]Event{}
	for _, e := range cfg.Events {
		events[e.SensorID] = append(events[e.SensorID], e)
		if e.Kind == EventCorrelatedPair && e.PairID != 0 {
			events[e.PairID] = append(events[e.PairID], e)
		}
	}

	rng := rand.New(rand.NewSource(cfg.Seed ^ g.cfg.Seed))
	var out []stream.Timestamped
	var routeA []bool
	for ts := cfg.FromMS; ts < cfg.ToMS; ts += cfg.StepMS {
		for _, sid := range sensors {
			val, fail := g.sample(sid, ts, events[sid], noise, rng)
			tid := int((sid - 1) / int64(g.cfg.SensorsPerTurbine))
			isA := g.sourceAOf(tid)
			row := relation.Tuple{
				relation.Int(sid), relation.Time(ts), relation.Float(val), relation.Int(boolToInt(fail)),
			}
			out = append(out, stream.Timestamped{TS: ts, Row: row})
			routeA = append(routeA, isA)
		}
	}
	return out, routeA, nil
}

func boolToInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// sample computes one measurement.
func (g *Generator) sample(sid int64, ts int64, evs []Event, noiseAmp float64, rng *rand.Rand) (float64, bool) {
	base := g.baseline(sid)
	val := base + base*0.02*math.Sin(float64(ts)/60000+float64(sid)) +
		rng.NormFloat64()*base*0.005*noiseAmp
	fail := false
	for _, e := range evs {
		if ts < e.StartMS || ts >= e.EndMS {
			continue
		}
		progress := float64(ts-e.StartMS) / float64(e.EndMS-e.StartMS)
		switch e.Kind {
		case EventMonotonicFailure:
			// Strictly increasing ramp; the last samples raise the flag.
			val = base + base*0.5*progress
			if progress > 0.9 {
				fail = true
			}
		case EventThreshold:
			val = g.Threshold(sid) * 1.2
		case EventCorrelatedPair:
			// Both sensors of the pair follow the same sawtooth.
			val = base + base*0.3*math.Sin(float64(ts-e.StartMS)/2000)
		}
	}
	return val, fail
}

// RouteName returns the stream a tuple belongs to.
func RouteName(isA bool) string {
	if isA {
		return "msmt_a"
	}
	return "msmt_b"
}

// SensorsOfTurbine lists a turbine's sensor ids.
func (g *Generator) SensorsOfTurbine(tid int) []int64 {
	out := make([]int64, g.cfg.SensorsPerTurbine)
	for k := 0; k < g.cfg.SensorsPerTurbine; k++ {
		out[k] = g.sensorID(tid, k)
	}
	return out
}

// PlantDefaultEvents returns a deterministic set of events covering all
// kinds: a monotonic-failure ramp on the first temperature sensor of
// turbines 0 and 1, a threshold spike on a pressure sensor, and one
// correlated pair, all within [fromMS, toMS).
func (g *Generator) PlantDefaultEvents(fromMS, toMS int64) []Event {
	span := toMS - fromMS
	var events []Event
	findKind := func(tid int, kind string) int64 {
		for _, sid := range g.SensorsOfTurbine(tid) {
			if g.SensorKind(sid) == kind {
				return sid
			}
		}
		return g.sensorID(tid, 0)
	}
	events = append(events, Event{
		Kind: EventMonotonicFailure, SensorID: findKind(0, "temperature"),
		StartMS: fromMS + span/10, EndMS: fromMS + span/2,
	})
	if g.cfg.Turbines > 1 {
		events = append(events, Event{
			Kind: EventMonotonicFailure, SensorID: findKind(1, "temperature"),
			StartMS: fromMS + span/3, EndMS: fromMS + 2*span/3,
		})
	}
	events = append(events, Event{
		Kind: EventThreshold, SensorID: findKind(0, "pressure"),
		StartMS: fromMS + span/2, EndMS: fromMS + 3*span/4,
	})
	pairA := findKind(0, "vibration")
	pairB := pairA + int64(len(SensorKinds)) // next vibration sensor on same turbine
	events = append(events, Event{
		Kind: EventCorrelatedPair, SensorID: pairA, PairID: pairB,
		StartMS: fromMS, EndMS: toMS,
	})
	sort.Slice(events, func(i, j int) bool { return events[i].StartMS < events[j].StartMS })
	return events
}
