package telemetry

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"strings"
)

// HandlerConfig names the data sources behind the monitoring surface.
// Every field may be nil: the corresponding endpoint then serves an
// empty document (or 404 for Explain). Sources are called per request
// so output is always live.
type HandlerConfig struct {
	Snapshot func() Snapshot
	Traces   func() []TraceSnapshot
	// Queries backs /queries — the fleet-wide per-query lag view.
	Queries func() []QueryLag
	// Explain backs /queries/{id}/explain; analyze adds observed
	// per-operator stats. It returns an error for unknown ids.
	Explain func(id string, analyze bool) (string, error)
	// Events backs /events — the merged flight-recorder timeline.
	Events func() []Event
}

// NewHandler serves the opt-in monitoring surface:
//
//	/metrics                merged metrics snapshot; JSON by default,
//	                        Prometheus text exposition with
//	                        ?format=prom or an Accept header naming
//	                        text/plain before application/json
//	/healthz                readiness probe ("ok\n", 200)
//	/queries                fleet-wide per-query lag view as JSON
//	/queries/{id}/explain   rendered query pipeline (?analyze=1 adds
//	                        observed per-operator stats)
//	/events                 flight-recorder timeline as JSON
//	/traces                 retained query-lifecycle traces as JSON
//	/debug/pprof/           the standard net/http/pprof profiles
func NewHandler(cfg HandlerConfig) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		var s Snapshot
		if cfg.Snapshot != nil {
			s = cfg.Snapshot()
		}
		if wantsProm(r) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			writeProm(w, s)
			return
		}
		writeJSON(w, s)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/queries", func(w http.ResponseWriter, _ *http.Request) {
		var qs []QueryLag
		if cfg.Queries != nil {
			qs = cfg.Queries()
		}
		if qs == nil {
			qs = []QueryLag{}
		}
		writeJSON(w, qs)
	})
	mux.HandleFunc("/queries/", func(w http.ResponseWriter, r *http.Request) {
		id, ok := strings.CutSuffix(strings.TrimPrefix(r.URL.Path, "/queries/"), "/explain")
		if !ok || id == "" || strings.Contains(id, "/") {
			http.NotFound(w, r)
			return
		}
		if cfg.Explain == nil {
			http.NotFound(w, r)
			return
		}
		analyze := r.URL.Query().Get("analyze") != ""
		text, err := cfg.Explain(id, analyze)
		if err != nil {
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, text)
	})
	mux.HandleFunc("/events", func(w http.ResponseWriter, _ *http.Request) {
		var evs []Event
		if cfg.Events != nil {
			evs = cfg.Events()
		}
		if evs == nil {
			evs = []Event{}
		}
		writeJSON(w, evs)
	})
	mux.HandleFunc("/traces", func(w http.ResponseWriter, _ *http.Request) {
		var ts []TraceSnapshot
		if cfg.Traces != nil {
			ts = cfg.Traces()
		}
		if ts == nil {
			ts = []TraceSnapshot{}
		}
		writeJSON(w, ts)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// wantsProm reports whether the request asked for Prometheus text
// exposition: ?format=prom, or an Accept header preferring text/plain
// over JSON. JSON stays the default.
func wantsProm(r *http.Request) bool {
	switch r.URL.Query().Get("format") {
	case "prom", "prometheus":
		return true
	case "json":
		return false
	}
	for _, part := range strings.Split(r.Header.Get("Accept"), ",") {
		mt := strings.TrimSpace(strings.SplitN(part, ";", 2)[0])
		switch mt {
		case "text/plain":
			return true
		case "application/json":
			return false
		}
	}
	return false
}

// promName maps a registry metric name ("exastream.window.exec_ns")
// onto the Prometheus grammar ([a-zA-Z_:][a-zA-Z0-9_:]*).
func promName(name string) string {
	var sb strings.Builder
	for i, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == ':':
			sb.WriteRune(r)
		case r >= '0' && r <= '9' && i > 0:
			sb.WriteRune(r)
		default:
			sb.WriteByte('_')
		}
	}
	return sb.String()
}

// writeProm renders a snapshot in the Prometheus text exposition
// format (version 0.0.4), hand-rolled so the package stays
// dependency-free: counters and gauges as single samples, histograms
// as the cumulative _bucket/_sum/_count triple.
func writeProm(w http.ResponseWriter, s Snapshot) {
	names := make([]string, 0, len(s.Counters))
	for name := range s.Counters {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		pn := promName(name)
		fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", pn, pn, s.Counters[name])
	}

	names = names[:0]
	for name := range s.Gauges {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		pn := promName(name)
		fmt.Fprintf(w, "# TYPE %s gauge\n%s %s\n", pn, pn,
			strconv.FormatFloat(s.Gauges[name], 'g', -1, 64))
	}

	names = names[:0]
	for name := range s.Histograms {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		h := s.Histograms[name]
		pn := promName(name)
		fmt.Fprintf(w, "# TYPE %s histogram\n", pn)
		var cum int64
		for i, bound := range h.Bounds {
			if i < len(h.Counts) {
				cum += h.Counts[i]
			}
			fmt.Fprintf(w, "%s_bucket{le=\"%s\"} %d\n", pn,
				strconv.FormatFloat(bound, 'g', -1, 64), cum)
		}
		fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", pn, h.Count)
		fmt.Fprintf(w, "%s_sum %s\n", pn, strconv.FormatFloat(h.Sum, 'g', -1, 64))
		fmt.Fprintf(w, "%s_count %d\n", pn, h.Count)
	}
}

// Server aliases http.Server so callers can hold and close the
// monitoring endpoint without importing net/http themselves.
type Server = http.Server

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// Serve starts the monitoring endpoint on addr (e.g. "localhost:6060";
// port 0 picks a free port) and returns the server plus the bound
// address. The caller closes the server (Shutdown for a graceful
// drain); serving errors after Close are swallowed.
//
// The endpoint is unauthenticated and includes net/http/pprof (heap
// dumps, CPU profiles, cmdline), so it is meant for loopback use. An
// addr with no host (":6060") binds to localhost, not all interfaces;
// exposing the endpoint to the network requires spelling out a
// non-loopback host explicitly.
func Serve(addr string, cfg HandlerConfig) (*http.Server, string, error) {
	if host, port, err := net.SplitHostPort(addr); err == nil && host == "" {
		addr = net.JoinHostPort("localhost", port)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, "", err
	}
	srv := &http.Server{Handler: NewHandler(cfg)}
	go func() { _ = srv.Serve(ln) }()
	return srv, ln.Addr().String(), nil
}
