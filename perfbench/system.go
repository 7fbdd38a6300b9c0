package main

import (
	"fmt"
	"runtime"
	"sync"
	"syscall"
	"time"

	optique "repro"
	"repro/internal/obda/mapping"
	"repro/internal/ontology"
	"repro/internal/rdf"
	"repro/internal/relation"
	"repro/internal/siemens"
)

// alert is one AnswerSink call: a task's CONSTRUCT triples for a window.
type alert struct {
	task    string
	end     int64
	triples []rdf.Triple
	at      time.Time
}

// alertLog collects sink calls from the worker goroutines.
type alertLog struct {
	mu     sync.Mutex
	alerts []alert
}

func (l *alertLog) sink(task string, end int64, triples []rdf.Triple) {
	at := time.Now()
	l.mu.Lock()
	l.alerts = append(l.alerts, alert{task: task, end: end, triples: triples, at: at})
	l.mu.Unlock()
}

func (l *alertLog) snapshot() []alert {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]alert(nil), l.alerts...)
}

// reset drops the recorded alerts.
func (l *alertLog) reset() {
	l.mu.Lock()
	l.alerts = nil
	l.mu.Unlock()
}

// deployment is one set-up system with the sink its tasks report to.
type deployment struct {
	sys      *optique.System
	log      *alertLog
	setup    time.Duration   // NewSystem + stream declarations + initial tasks
	setupCPU time.Duration   // process CPU time (user+system) of the same span
	register []time.Duration // one per initial task, in registration order
}

func (w workload) config() optique.Config {
	return optique.Config{
		Nodes:           w.nodes,
		Engine:          optique.EngineOptions{ShareWindows: w.shareWindows},
		Transport:       w.transport,
		CheckpointEvery: w.checkpointEvery,
	}
}

// deployAssets are the inputs of a deployment: the ontology, the
// mappings and the workload's static catalog, built fresh for every
// system so nothing one system does to them carries into the next.
type deployAssets struct {
	tbox *ontology.TBox
	maps *mapping.Set
	cat  *relation.Catalog
}

func newAssets(w workload) (*deployAssets, error) {
	gen, err := newGenerator(w)
	if err != nil {
		return nil, err
	}
	cat, err := gen.StaticCatalog()
	if err != nil {
		return nil, err
	}
	return &deployAssets{tbox: siemens.TBox(), maps: siemens.Mappings(), cat: cat}, nil
}

// newSystem deploys a system on the assets and declares both streams.
func newSystem(w workload, a *deployAssets) (*optique.System, error) {
	sys, err := optique.NewSystem(w.config(), a.tbox, a.maps, a.cat)
	if err != nil {
		return nil, fmt.Errorf("new system: %w", err)
	}
	for _, sc := range siemens.StreamSchemas() {
		if err := sys.DeclareStream(sc); err != nil {
			sys.Close()
			return nil, fmt.Errorf("declare %s: %w", sc.Name, err)
		}
	}
	return sys, nil
}

// deploy runs the timed set-up: NewSystem, the stream declarations and
// registration of the initial task set. The assets are built first,
// outside the timed section, and a GC runs before it so the previous
// pass's garbage is not charged to set-up.
func deploy(w workload) (*deployment, error) {
	a, err := newAssets(w)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	d := &deployment{log: &alertLog{}}
	cpu0 := processCPU()
	start := time.Now()
	if d.sys, err = newSystem(w, a); err != nil {
		return nil, err
	}
	for _, t := range w.tasks {
		t0 := time.Now()
		if _, err := d.sys.RegisterTask(t.ID, t.Query, d.log.sink); err != nil {
			d.sys.Close()
			return nil, fmt.Errorf("register %s: %w", t.ID, err)
		}
		d.register = append(d.register, time.Since(t0))
	}
	d.setup = time.Since(start)
	d.setupCPU = processCPU() - cpu0
	return d, nil
}

// processCPU is the CPU time (user plus system, all threads) the process
// has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
