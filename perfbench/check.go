package main

import (
	"crypto/sha256"
	"encoding/hex"
	"sort"
	"strconv"
	"strings"

	optique "repro"
	"repro/internal/siemens"
	"repro/internal/starql"
)

// alertSetHash hashes a pass's alert set as (task, window end, triples),
// leaving out the churned tasks.
func alertSetHash(alerts []alert, churned map[string]bool) (string, int) {
	var lines []string
	for _, a := range alerts {
		if churned[a.task] {
			continue
		}
		ts := make([]string, len(a.triples))
		for i, t := range a.triples {
			ts[i] = t.String()
		}
		sort.Strings(ts)
		lines = append(lines, a.task+"\x1f"+strconv.FormatInt(a.end, 10)+"\x1f"+strings.Join(ts, "\x1f"))
	}
	sort.Strings(lines)
	h := sha256.New()
	for _, l := range lines {
		h.Write([]byte(l))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil)), len(lines)
}

// monTask is a Figure 1 monotonic-increase task of the initial set.
type monTask struct {
	id      string
	kind    string // sensor kind the task watches
	rangeMS int64
}

func monTasks(w workload) ([]monTask, error) {
	var out []monTask
	for _, t := range w.tasks {
		if !isMonotonic(t.ID) {
			continue
		}
		q, err := starql.Parse(t.Query)
		if err != nil {
			return nil, err
		}
		out = append(out, monTask{id: t.ID, kind: t.ID[strings.Index(t.ID, "_mon_")+5:], rangeMS: q.Streams[0].RangeMS})
	}
	return out, nil
}

// failureTimes lists the sample timestamps (multiples of stepMS) at
// which a ramp raises the failure flag: the generator flags the last
// tenth of the ramp.
func failureTimes(e siemens.Event) []int64 {
	var out []int64
	for ts := (e.StartMS + stepMS - 1) / stepMS * stepMS; ts < e.EndMS; ts += stepMS {
		if float64(ts-e.StartMS)/float64(e.EndMS-e.StartMS) > 0.9 {
			out = append(out, ts)
		}
	}
	return out
}

func flagInWindow(flags []int64, end, rangeMS int64) bool {
	for _, ts := range flags {
		if ts > end-rangeMS && ts <= end {
			return true
		}
	}
	return false
}

func sensorOf(iri string) (int64, bool) {
	prefix := siemens.DataNS + "sensor/"
	if !strings.HasPrefix(iri, prefix) {
		return 0, false
	}
	sid, err := strconv.ParseInt(iri[len(prefix):], 10, 64)
	return sid, err == nil
}

// checkRamps is the ground-truth gate on the monotonic tasks: every
// planted ramp on a watched sensor kind alerts its sensor in a window
// holding its failure flag, and every monotonic alert names a sensor
// with a ramp whose failure flag lies in the alerting window.
func checkRamps(t *tally, label string, w workload, in *input, alerts []alert) error {
	mons, err := monTasks(w)
	if err != nil {
		return err
	}
	type hit struct {
		task string
		sid  int64
	}
	flagged := map[hit][]int64{} // (task, sensor) -> alerting window ends
	monByID := map[string]monTask{}
	for _, m := range mons {
		monByID[m.id] = m
	}
	rampsOf := map[int64][]siemens.Event{}
	for _, e := range in.ramps {
		rampsOf[e.SensorID] = append(rampsOf[e.SensorID], e)
	}
	var triples, spurious int64
	for _, a := range alerts {
		m, ok := monByID[a.task]
		if !ok {
			continue
		}
		for _, tr := range a.triples {
			triples++
			sid, ok := sensorOf(tr.S.Value)
			explained := false
			if ok {
				for _, e := range rampsOf[sid] {
					if flagInWindow(failureTimes(e), a.end, m.rangeMS) {
						explained = true
						break
					}
				}
			}
			if !explained {
				spurious++
				continue
			}
			flagged[hit{a.task, sid}] = append(flagged[hit{a.task, sid}], a.end)
		}
	}
	t.add(triples, spurious, "%s: monotonic alerts without a planted failure in the window", label)
	var checked, missed int64
	for _, m := range mons {
		for _, e := range in.ramps {
			if in.gen.SensorKind(e.SensorID) != m.kind {
				continue
			}
			checked++
			flags := failureTimes(e)
			found := false
			for _, end := range flagged[hit{m.id, e.SensorID}] {
				if flagInWindow(flags, end, m.rangeMS) {
					found = true
					break
				}
			}
			if !found {
				missed++
			}
		}
	}
	t.add(checked, missed, "%s: planted ramps that never alerted", label)
	return nil
}

// checkSystem counts the runtime's own failure counters: tuples dropped
// by backpressure or dead nodes, node failovers (a failed-over node's
// queries replay after Flush has returned), asynchronous worker errors,
// failed window executions and tuples dropped as late.
func checkSystem(t *tally, label string, sys *optique.System) {
	h := sys.Health()
	e := sys.Cluster().EngineTotals()
	t.add(0, h.Dropped, "%s: dropped tuples", label)
	t.add(0, h.Failovers, "%s: node failovers", label)
	t.add(0, h.Errors, "%s: worker errors", label)
	t.add(0, e.QueryFailures, "%s: failed window executions", label)
	t.add(0, e.LateTuples, "%s: late tuples", label)
}
