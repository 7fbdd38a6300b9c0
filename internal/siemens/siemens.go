// Package siemens generates the demo workload of the paper: an
// anonymised turbine fleet in the style of Siemens Energy — 950 gas and
// steam turbines with >100,000 sensors by default — spread over two
// structurally different source schemas, a diagnostic ontology with
// hundreds of terms, the GAV mappings connecting them, measurement
// streams with plantable patterns (monotonic ramps ending in failures,
// correlated sensor pairs, threshold exceedances), the catalog of 20
// diagnostic tasks, and the 10 predefined test sets of demo scenario S2.
//
// The paper's real data is proprietary; this generator substitutes a
// deterministic synthetic fleet that preserves what the experiments
// exercise: schema heterogeneity (the reason OBDA helps) and detectable
// temporal patterns (so diagnostic answers have ground truth).
package siemens

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/ontology"
	"repro/internal/relation"
	"repro/internal/stream"
)

// Namespaces of the generated deployment.
const (
	NS     = "http://siemens.com/ontology#"
	DataNS = "http://siemens.com/data/"
	OutNS  = "http://siemens.com/out#"
)

// SensorKinds are the sensor categories of the fleet.
var SensorKinds = []string{"temperature", "pressure", "vibration", "flow", "speed"}

// Config sizes the fleet. The zero value is unusable; use DefaultConfig
// or SmallConfig.
type Config struct {
	Turbines             int
	SensorsPerTurbine    int
	AssembliesPerTurbine int
	// SourceASplit is the fraction of turbines stored in source A's
	// schema; the rest live in source B (schema heterogeneity).
	SourceASplit float64
	Seed         int64
}

// DefaultConfig reproduces the paper's fleet: 950 turbines with ~110
// sensors each (>100,000 sensors).
func DefaultConfig() Config {
	return Config{
		Turbines:             950,
		SensorsPerTurbine:    110,
		AssembliesPerTurbine: 5,
		SourceASplit:         0.6,
		Seed:                 1,
	}
}

// SmallConfig is a laptop-test-sized fleet.
func SmallConfig() Config {
	return Config{
		Turbines:             10,
		SensorsPerTurbine:    8,
		AssembliesPerTurbine: 2,
		SourceASplit:         0.5,
		Seed:                 1,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Turbines <= 0 || c.SensorsPerTurbine <= 0 || c.AssembliesPerTurbine <= 0 {
		return fmt.Errorf("siemens: fleet sizes must be positive")
	}
	if c.SourceASplit < 0 || c.SourceASplit > 1 {
		return fmt.Errorf("siemens: SourceASplit must be in [0,1]")
	}
	return nil
}

// Generator builds all workload artefacts deterministically from the
// configuration.
type Generator struct {
	cfg Config
}

// New returns a generator; it fails on invalid configurations.
func New(cfg Config) (*Generator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Generator{cfg: cfg}, nil
}

// Config returns the generator's configuration.
func (g *Generator) Config() Config { return g.cfg }

// SensorCount returns the total number of sensors in the fleet.
func (g *Generator) SensorCount() int { return g.cfg.Turbines * g.cfg.SensorsPerTurbine }

// sourceAOf reports whether a turbine lives in source A.
func (g *Generator) sourceAOf(tid int) bool {
	return tid < int(float64(g.cfg.Turbines)*g.cfg.SourceASplit)
}

// sensorID computes the global sensor id of sensor k on turbine tid.
func (g *Generator) sensorID(tid, k int) int64 {
	return int64(tid)*int64(g.cfg.SensorsPerTurbine) + int64(k) + 1
}

// SensorKind returns the kind of a sensor id (round-robin per turbine).
func (g *Generator) SensorKind(sid int64) string {
	return SensorKinds[int((sid-1)%int64(len(SensorKinds)))]
}

// SensorIRI returns the instance IRI of a sensor.
func SensorIRI(sid int64) string { return fmt.Sprintf("%ssensor/%d", DataNS, sid) }

// StaticCatalog materialises the static databases of both sources:
//
//	source A: a_turbines(tid, model, country, year),
//	          a_assemblies(aid, tid, kind),
//	          a_sensors(sid, aid, kind)
//	source B: b_units(unit_id, unit_model, site),
//	          b_parts(part_id, unit_id, part_kind),
//	          b_channels(chan_id, part_id, chan_type)
//
// plus shared service_events(eid, tid, day, kind) history and
// weather(station, day, temp_c).
func (g *Generator) StaticCatalog() (*relation.Catalog, error) {
	rng := rand.New(rand.NewSource(g.cfg.Seed))
	cat := relation.NewCatalog()

	aTurbines, err := cat.Create("a_turbines", relation.NewSchema(
		relation.Col("tid", relation.TInt),
		relation.Col("model", relation.TString),
		relation.Col("country", relation.TString),
		relation.Col("year", relation.TInt),
	))
	if err != nil {
		return nil, err
	}
	aAssemblies, err := cat.Create("a_assemblies", relation.NewSchema(
		relation.Col("aid", relation.TInt),
		relation.Col("tid", relation.TInt),
		relation.Col("kind", relation.TString),
	))
	if err != nil {
		return nil, err
	}
	aSensors, err := cat.Create("a_sensors", relation.NewSchema(
		relation.Col("sid", relation.TInt),
		relation.Col("aid", relation.TInt),
		relation.Col("kind", relation.TString),
	))
	if err != nil {
		return nil, err
	}
	bUnits, err := cat.Create("b_units", relation.NewSchema(
		relation.Col("unit_id", relation.TInt),
		relation.Col("unit_model", relation.TString),
		relation.Col("site", relation.TString),
	))
	if err != nil {
		return nil, err
	}
	bParts, err := cat.Create("b_parts", relation.NewSchema(
		relation.Col("part_id", relation.TInt),
		relation.Col("unit_id", relation.TInt),
		relation.Col("part_kind", relation.TString),
	))
	if err != nil {
		return nil, err
	}
	bChannels, err := cat.Create("b_channels", relation.NewSchema(
		relation.Col("chan_id", relation.TInt),
		relation.Col("part_id", relation.TInt),
		relation.Col("chan_type", relation.TString),
	))
	if err != nil {
		return nil, err
	}
	service, err := cat.Create("service_events", relation.NewSchema(
		relation.Col("eid", relation.TInt),
		relation.Col("tid", relation.TInt),
		relation.Col("day", relation.TInt),
		relation.Col("kind", relation.TString),
	))
	if err != nil {
		return nil, err
	}
	weather, err := cat.Create("weather", relation.NewSchema(
		relation.Col("station", relation.TString),
		relation.Col("day", relation.TInt),
		relation.Col("temp_c", relation.TFloat),
	))
	if err != nil {
		return nil, err
	}

	models := []string{"SGT-100", "SGT-400", "SGT-800", "SST-600", "SST-5000"}
	countries := []string{"DE", "NO", "US", "BR", "IN", "CN"}
	assemblyKinds := []string{"burner", "rotor", "stator", "bearing", "exhaust", "cooling", "gearbox"}

	eid := int64(1)
	for tid := 0; tid < g.cfg.Turbines; tid++ {
		model := models[tid%len(models)]
		country := countries[tid%len(countries)]
		if g.sourceAOf(tid) {
			aTurbines.MustInsert(relation.Tuple{
				relation.Int(int64(tid)), relation.String_(model),
				relation.String_(country), relation.Int(int64(2002 + tid%10)),
			})
		} else {
			bUnits.MustInsert(relation.Tuple{
				relation.Int(int64(tid)), relation.String_(model),
				relation.String_("plant-" + country),
			})
		}
		// Assemblies.
		for a := 0; a < g.cfg.AssembliesPerTurbine; a++ {
			aid := int64(tid)*int64(g.cfg.AssembliesPerTurbine) + int64(a) + 1
			kind := assemblyKinds[int(aid)%len(assemblyKinds)]
			if g.sourceAOf(tid) {
				aAssemblies.MustInsert(relation.Tuple{
					relation.Int(aid), relation.Int(int64(tid)), relation.String_(kind),
				})
			} else {
				bParts.MustInsert(relation.Tuple{
					relation.Int(aid), relation.Int(int64(tid)), relation.String_(kind),
				})
			}
		}
		// Sensors spread over the turbine's assemblies.
		for k := 0; k < g.cfg.SensorsPerTurbine; k++ {
			sid := g.sensorID(tid, k)
			aid := int64(tid)*int64(g.cfg.AssembliesPerTurbine) + int64(k%g.cfg.AssembliesPerTurbine) + 1
			kind := g.SensorKind(sid)
			if g.sourceAOf(tid) {
				aSensors.MustInsert(relation.Tuple{
					relation.Int(sid), relation.Int(aid), relation.String_(kind),
				})
			} else {
				bChannels.MustInsert(relation.Tuple{
					relation.Int(sid), relation.Int(aid), relation.String_(kind),
				})
			}
		}
		// Sparse service history.
		if tid%7 == 0 {
			service.MustInsert(relation.Tuple{
				relation.Int(eid), relation.Int(int64(tid)),
				relation.Int(int64(rng.Intn(3650))), relation.String_("overhaul"),
			})
			eid++
		}
	}
	for day := 0; day < 30; day++ {
		for _, c := range countries {
			weather.MustInsert(relation.Tuple{
				relation.String_("st-" + c), relation.Int(int64(day)),
				relation.Float(10 + 15*math.Sin(float64(day)/5) + rng.Float64()*3),
			})
		}
	}
	return cat, nil
}

// StreamSchemas declares the two measurement streams: source A's
// msmt_a(sid, ts, val, fail) and source B's differently-shaped
// msmt_b(chan_nr, ts, reading, status).
func StreamSchemas() []stream.Schema {
	return []stream.Schema{
		{
			Name: "msmt_a",
			Tuple: relation.NewSchema(
				relation.Col("sid", relation.TInt),
				relation.Col("ts", relation.TTime),
				relation.Col("val", relation.TFloat),
				relation.Col("fail", relation.TInt),
			),
			TSCol: "ts",
		},
		{
			Name: "msmt_b",
			Tuple: relation.NewSchema(
				relation.Col("chan_nr", relation.TInt),
				relation.Col("ts", relation.TTime),
				relation.Col("reading", relation.TFloat),
				relation.Col("status", relation.TInt),
			),
			TSCol: "ts",
		},
	}
}

// TBox builds the Siemens diagnostic ontology: the appliance, assembly
// and sensor hierarchies, model-specific classes, and the measurement
// vocabulary — several hundred terms, as in [10].
func TBox() *ontology.TBox {
	tb := ontology.New()
	n := func(l string) ontology.Concept { return ontology.Named(NS + l) }

	// Appliance hierarchy.
	tb.AddConceptInclusion(n("Turbine"), n("PowerAppliance"))
	tb.AddConceptInclusion(n("Generator"), n("PowerAppliance"))
	tb.AddConceptInclusion(n("Compressor"), n("PowerAppliance"))
	tb.AddConceptInclusion(n("GasTurbine"), n("Turbine"))
	tb.AddConceptInclusion(n("SteamTurbine"), n("Turbine"))
	tb.AddDisjoint(n("GasTurbine"), n("SteamTurbine"))
	// Model-specific classes (SGT = gas, SST = steam), 40 variants each.
	for i := 0; i < 40; i++ {
		tb.AddConceptInclusion(n(fmt.Sprintf("SGT%dSeries", 100+i*25)), n("GasTurbine"))
		tb.AddConceptInclusion(n(fmt.Sprintf("SST%dSeries", 100+i*25)), n("SteamTurbine"))
	}

	// Assemblies.
	tb.AddConceptInclusion(n("Assembly"), n("Component"))
	for _, k := range []string{"Burner", "Rotor", "Stator", "Bearing", "Exhaust", "Cooling", "Gearbox"} {
		tb.AddConceptInclusion(n(k+"Assembly"), n("Assembly"))
	}

	// Sensor hierarchy: one subclass per kind plus placement variants.
	tb.AddConceptInclusion(n("Sensor"), n("MonitoringDevice"))
	for _, k := range []string{"Temperature", "Pressure", "Vibration", "Flow", "Speed"} {
		tb.AddConceptInclusion(n(k+"Sensor"), n("Sensor"))
		for _, pos := range []string{"Inlet", "Outlet", "Bearing", "Casing"} {
			tb.AddConceptInclusion(n(pos+k+"Sensor"), n(k+"Sensor"))
		}
	}

	// Properties.
	tb.AddDomain(NS+"inAssembly", n("Assembly"))
	tb.AddRange(NS+"inAssembly", n("Sensor"))
	tb.AddDomain(NS+"inTurbine", n("Assembly"))
	tb.AddRange(NS+"inTurbine", n("Turbine"))
	tb.AddInverse(NS+"hasPart", NS+"partOf")
	tb.DeclareDataProperty(NS + "hasValue")
	tb.AddDomain(NS+"hasValue", n("Sensor"))
	tb.DeclareDataProperty(NS + "showsFailure")
	tb.AddDomain(NS+"showsFailure", n("Sensor"))
	for _, dp := range []string{"hasModel", "hasSerialNo", "commissionedIn", "locatedIn", "hasKind"} {
		tb.DeclareDataProperty(NS + dp)
	}
	tb.SetLabel(NS+"Turbine", "power generating turbine")
	tb.SetLabel(NS+"hasValue", "measured value of a sensor")
	return tb
}
