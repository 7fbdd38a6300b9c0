// Package optique is the public API of this reproduction of
// "Ontology-Based Integration of Streaming and Static Relational Data
// with Optique" (Kharlamov et al., SIGMOD 2016).
//
// OPTIQUE lets an engineer express a diagnostic task over an industrial
// ontology as a single STARQL continuous query; the system enriches the
// query with the ontology (PerfectRef rewriting), unfolds it through
// GAV mappings into a fleet of SQL(+) queries, and executes the fleet
// on ExaStream, a distributed stream engine with CQL window semantics,
// shared window materialisation (one window operator per stream and
// window, serving every query over it), and adaptive in-memory
// indexing.
//
// The typical flow:
//
//	gen, _ := siemens.New(siemens.SmallConfig())       // demo workload
//	cat, _ := gen.StaticCatalog()
//	sys, _ := optique.NewSystem(optique.Config{Nodes: 4},
//	    siemens.TBox(), siemens.Mappings(), cat)
//	defer sys.Close()
//	for _, sc := range siemens.StreamSchemas() {
//	    sys.DeclareStream(sc)
//	}
//	task, _ := sys.RegisterTask("fig1", starqlText, func(id string, end int64, ts []rdf.Triple) {
//	    ... // alert!
//	})
//	sys.Ingest("msmt_a", tuple)                        // replay or live feed
//
// Subpackages under internal/ implement every substrate from scratch:
// the RDF model, OWL 2 QL reasoning, conjunctive-query rewriting,
// mappings and unfolding, a SQL(+) parser and relational engine, CQL
// windows, the DSMS, the cluster runtime, the STARQL language, BootOX
// bootstrapping, and LSH stream correlation.
package optique

import (
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/exastream"
	"repro/internal/obda/mapping"
	"repro/internal/ontology"
	"repro/internal/relation"
	"repro/internal/starql"
	"repro/internal/telemetry"
)

// System is one OPTIQUE deployment; see core.System.
type System = core.System

// Task is a registered diagnostic task.
type Task = core.Task

// Config configures the runtime: the cluster's options, with each
// node's engine settings under Config.Engine. Every setting has one
// field; README.md's settings table lists them with their defaults.
type Config = core.Config

// AnswerSink receives CONSTRUCT triples from running tasks.
type AnswerSink = core.AnswerSink

// Placement strategies for the cluster scheduler.
const (
	PlaceLeastLoaded = cluster.PlaceLeastLoaded
	PlaceRoundRobin  = cluster.PlaceRoundRobin
)

// EngineOptions configures each worker's ExaStream instance.
type EngineOptions = exastream.Options

// Health summarises the runtime's failure state; see System.Health.
type Health = cluster.Health

// TelemetrySnapshot is a point-in-time view of every metric the system
// records; see System.TelemetrySnapshot.
type TelemetrySnapshot = telemetry.Snapshot

// TraceSnapshot is one task's query-lifecycle trace (rewrite → unfold →
// register → window-exec spans); see System.Traces.
type TraceSnapshot = telemetry.TraceSnapshot

// TelemetryServer is the running observability endpoint returned by
// System.ServeTelemetry; callers shut it down on exit.
type TelemetryServer = telemetry.Server

// QueryLag is one task's fleet lag-view row (watermark lag, window
// backlog, budget headroom, degrade state); see System.QueryLags.
type QueryLag = telemetry.QueryLag

// Event is one flight-recorder entry; see System.Events and
// Config.FlightRecorder.
type Event = telemetry.Event

// FaultInjector hooks worker loops for chaos testing; internal/faults
// provides a deterministic, seedable implementation.
type FaultInjector = cluster.FaultInjector

// NewSystem deploys OPTIQUE over an ontology, mappings, and a static
// catalog.
func NewSystem(cfg Config, tbox *ontology.TBox, set *mapping.Set, catalog *relation.Catalog) (*System, error) {
	return core.NewSystem(cfg, tbox, set, catalog)
}

// ParseSTARQL parses a STARQL document (the paper's Figure 1 syntax).
func ParseSTARQL(src string) (*starql.Query, error) { return starql.Parse(src) }

// ParseOntology parses the functional-style ontology syntax of
// internal/ontology.
func ParseOntology(src string) (*ontology.TBox, error) {
	tb, _, err := ontology.Parse(src)
	return tb, err
}
