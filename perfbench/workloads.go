package main

import (
	"strings"

	"repro/internal/cluster"
	"repro/internal/siemens"
)

// workload is one seeded benchmark configuration: the fleet it
// generates, the tasks it registers, and how the runtime is deployed.
type workload struct {
	name     string
	turbines int
	nodes    int
	tasks    []siemens.Task // the initial task set, registered during set-up
	// denseRamps plants a monotonic ramp-then-failure event on every
	// source-A sensor, repeatedly, so most windows of the monotonic
	// tasks alert; otherwise the generator's default events are planted.
	denseRamps bool
	// rampGapMS bounds the seeded gap between one dense ramp and the
	// sensor's next.
	rampGapMS [2]int64
	transport cluster.TransportKind
	// shareWindows lets queries over the same window share one
	// materialised window (exastream's wCache).
	shareWindows bool
	// checkpointEvery turns on checkpoint+log recovery at this cadence
	// in tuples (0 = off).
	checkpointEvery int
	// churn lists catalog tasks registered and unregistered mid-stream,
	// one at a time, at fixed fractions of the input.
	churn []siemens.Task
	// rate is the open-loop offered load in tuples per second.
	rate float64
}

// stepMS is the sampling period of every sensor.
const stepMS = 500

// sensorsPerTurbine matches siemens.SmallConfig.
const sensorsPerTurbine = 8

func catalogTask(id string) siemens.Task {
	t, ok := siemens.TaskByID(id)
	if !ok {
		panic("perfbench: unknown catalog task " + id)
	}
	return t
}

// workloads returns the benchmark's workloads by name.
func workloads() map[string]workload {
	var mon []siemens.Task
	for _, t := range siemens.Catalog() {
		if isMonotonic(t.ID) {
			mon = append(mon, t)
		}
	}
	return map[string]workload{
		"fig1_fleet": {
			name: "fig1_fleet", turbines: 40, nodes: 1,
			tasks: mon, denseRamps: true, rampGapMS: [2]int64{5_000, 30_000},
			shareWindows: true,
			transport:    cluster.TransportChannel,
			rate:         8_000,
		},
		"catalog_fleet": {
			name: "catalog_fleet", turbines: 10, nodes: 2,
			tasks:        siemens.TestSets()[9],
			shareWindows: true,
			transport:    cluster.TransportChannel,
			rate:         3_000,
		},
		"durable_churn": {
			name: "durable_churn", turbines: 4, nodes: 2,
			tasks:           siemens.TestSets()[1],
			denseRamps:      true,
			rampGapMS:       [2]int64{2_000, 8_000},
			transport:       cluster.TransportTCP,
			checkpointEvery: 64,
			churn: []siemens.Task{
				catalogTask("T05_mon_pressure"), catalogTask("T06_thr_pressure"),
				catalogTask("T09_mon_vibration"), catalogTask("T10_thr_vibration"),
			},
			rate: 2_000,
		},
	}
}

// isMonotonic reports whether a catalog task is one of the Figure 1
// monotonic-increase-before-failure tasks.
func isMonotonic(taskID string) bool { return strings.Contains(taskID, "_mon_") }

// eventSeconds sizes the input's event-time span so that one open-loop
// pass lasts openPassSeconds at the workload's rate: every sensor
// samples twice per event-time second.
func (w workload) eventSeconds() int64 {
	perEventSecond := float64((1000 / stepMS) * w.turbines * sensorsPerTurbine)
	n := int64(w.rate * openPassSeconds / perEventSecond)
	if n < 30 {
		n = 30
	}
	return n
}
