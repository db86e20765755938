// Package obshttp serves live introspection over a running campaign's
// observability state: OpenMetrics for scrapers, a human status page, a
// streaming tail of the flight recorder, and the standard pprof endpoints.
//
// The server only *reads* the obs.Registry and obs.FlightRecorder; the one
// thing it writes is its own runtime sampler, which publishes heap/goroutine
// gauges into the registry. Nothing here ever touches the Tracer, so the
// canonical trace stream — the determinism contract — is identical with and
// without a live introspection server attached.
package obshttp

import (
	"encoding/json"
	"fmt"
	"html"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"hotg/internal/obs"
)

// Server exposes one observability handle over HTTP. Zero-value fields are
// fine: a nil Obs serves empty metrics, a nil Recorder serves an empty event
// tail.
type Server struct {
	Obs      *obs.Obs
	Recorder *obs.FlightRecorder

	// Info, when set, contributes tool-specific headline fields to /statusz
	// (live run counts, findings, budget remaining, …). It is called on every
	// request and must be safe for concurrent use.
	Info func() map[string]int64

	start time.Time
}

// New returns a server over the given observability handle, tailing the
// recorder attached to its tracer (if any).
func New(o *obs.Obs) *Server {
	s := &Server{Obs: o, start: time.Now()}
	if o != nil {
		s.Recorder = o.Trace.Recorder()
	}
	return s
}

func (s *Server) registry() *obs.Registry {
	if s.Obs == nil {
		return nil
	}
	return s.Obs.Metrics
}

// Handler returns the introspection mux:
//
//	/metrics        OpenMetrics text exposition of the registry
//	/statusz        campaign status, JSON by default, ?format=html for a page
//	/events         flight-recorder dump (JSONL); ?follow=1 to stream live
//	/debug/pprof/*  the standard runtime profiles
//
// The pprof handlers are mounted explicitly on this mux rather than relying
// on http.DefaultServeMux, so importing this package never changes the global
// mux and the introspection port is self-contained.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", s.handleIndex)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/statusz", s.handleStatusz)
	mux.HandleFunc("/events", s.handleEvents)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	fmt.Fprint(w, `<!doctype html><title>hotg introspection</title><ul>
<li><a href="/statusz?format=html">/statusz</a> — live campaign status</li>
<li><a href="/metrics">/metrics</a> — OpenMetrics exposition</li>
<li><a href="/events">/events</a> — flight recorder dump (add ?follow=1 to tail)</li>
<li><a href="/debug/pprof/">/debug/pprof/</a> — runtime profiles</li>
</ul>`)
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/openmetrics-text; version=1.0.0; charset=utf-8")
	_ = obs.WriteOpenMetrics(w, s.registry())
}

// Statusz is the JSON document served at /statusz: the headline numbers an
// operator watches during a long campaign, plus the full metric map and the
// phase attribution tree.
type Statusz struct {
	UptimeSeconds float64          `json:"uptime_seconds"`
	Headline      map[string]int64 `json:"headline,omitempty"`
	Runtime       RuntimeStatus    `json:"runtime"`
	Metrics       map[string]int64 `json:"metrics"`
	Phases        *obs.PhaseNode   `json:"phases,omitempty"`
	FlightEvents  int64            `json:"flight_events_total"`
}

// RuntimeStatus is the process-health corner of /statusz, sampled at request
// time (the periodic sampler publishes the same numbers as gauges).
type RuntimeStatus struct {
	HeapBytes  uint64 `json:"heap_bytes"`
	Goroutines int    `json:"goroutines"`
	NumGC      uint32 `json:"gc_count"`
}

func (s *Server) statusz() Statusz {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	st := Statusz{
		UptimeSeconds: time.Since(s.start).Seconds(),
		Runtime:       RuntimeStatus{HeapBytes: ms.HeapAlloc, Goroutines: runtime.NumGoroutine(), NumGC: ms.NumGC},
		Metrics:       map[string]int64{},
		Phases:        obs.PhaseTree(s.registry()),
		FlightEvents:  s.Recorder.Total(),
	}
	if s.Info != nil {
		st.Headline = s.Info()
	}
	for _, m := range s.registry().Snapshot() {
		st.Metrics[m.Name] = m.Value
	}
	return st
}

func (s *Server) handleStatusz(w http.ResponseWriter, r *http.Request) {
	st := s.statusz()
	if r.URL.Query().Get("format") != "html" {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(st)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	fmt.Fprintf(w, "<!doctype html><title>hotg /statusz</title><meta http-equiv=\"refresh\" content=\"2\">\n")
	fmt.Fprintf(w, "<style>body{font:14px monospace}table{border-collapse:collapse}td,th{padding:2px 10px;text-align:right}th{text-align:left}</style>\n")
	fmt.Fprintf(w, "<h2>hotg campaign status</h2>\n<p>uptime %.1fs · heap %d MiB · %d goroutines · %d flight events</p>\n",
		st.UptimeSeconds, st.Runtime.HeapBytes>>20, st.Runtime.Goroutines, st.FlightEvents)
	writeKV := func(title string, kv map[string]int64) {
		if len(kv) == 0 {
			return
		}
		keys := make([]string, 0, len(kv))
		for k := range kv {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Fprintf(w, "<h3>%s</h3><table>\n", html.EscapeString(title))
		for _, k := range keys {
			fmt.Fprintf(w, "<tr><th>%s</th><td>%d</td></tr>\n", html.EscapeString(k), kv[k])
		}
		fmt.Fprint(w, "</table>\n")
	}
	writeKV("campaign", st.Headline)
	if table := obs.PhaseTable(s.registry()); table != "" {
		fmt.Fprintf(w, "<h3>phase self-time</h3><pre>%s</pre>\n", html.EscapeString(table))
	}
	writeKV("all metrics", st.Metrics)
}

// handleEvents serves the flight recorder. The default is a dump: the retained
// window as JSONL, oldest first. With ?follow=1 the dump is followed by a live
// tail (new events as they are recorded) until the client disconnects or
// ?max=N events have been streamed. A follower subscribes before the dump is
// taken and before the response headers go out, so once a client has the
// headers, every later event reaches it; the tail skips events the dump
// already sent.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/jsonl; charset=utf-8")
	follow := r.URL.Query().Get("follow") != "" && s.Recorder != nil
	var ch <-chan obs.Event
	if follow {
		var cancel func() int64
		ch, cancel = s.Recorder.Subscribe(256)
		defer cancel()
	}
	enc := json.NewEncoder(w)
	var last int64 // highest sequence number dumped
	for _, ev := range s.Recorder.Snapshot() {
		_ = enc.Encode(ev)
		last = ev.Seq
	}
	if !follow {
		return
	}
	maxEvents := int64(1 << 62)
	if v := r.URL.Query().Get("max"); v != "" {
		if n, err := strconv.ParseInt(v, 10, 64); err == nil && n >= 0 {
			maxEvents = n
		}
	}
	flusher, _ := w.(http.Flusher)
	if flusher != nil {
		flusher.Flush()
	}
	ctx := r.Context()
	var streamed int64
	for streamed < maxEvents {
		select {
		case <-ctx.Done():
			return
		case ev, ok := <-ch:
			if !ok {
				return
			}
			if ev.Seq <= last {
				continue
			}
			if err := enc.Encode(ev); err != nil {
				return
			}
			streamed++
			if flusher != nil {
				flusher.Flush()
			}
		}
	}
}

// StartSampler launches a goroutine that publishes process-health gauges
// (runtime.heap_bytes, runtime.goroutines, runtime.gc_count) into the
// registry every interval. It writes gauges only — never trace events — so it
// cannot perturb canonical streams. The returned stop function is idempotent
// and waits for the goroutine to exit.
func (s *Server) StartSampler(interval time.Duration) (stop func()) {
	reg := s.registry()
	if reg == nil {
		return func() {}
	}
	if interval <= 0 {
		interval = time.Second
	}
	heap := reg.Gauge("runtime.heap_bytes")
	gor := reg.Gauge("runtime.goroutines")
	gc := reg.Gauge("runtime.gc_count")
	sample := func() {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		heap.Set(int64(ms.HeapAlloc))
		gor.Set(int64(runtime.NumGoroutine()))
		gc.Set(int64(ms.NumGC))
	}
	sample()
	done := make(chan struct{})
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				sample()
			}
		}
	}()
	var stopped bool
	return func() {
		if !stopped {
			stopped = true
			close(done)
			<-exited
		}
	}
}

// Serve binds addr (e.g. ":8080" or "127.0.0.1:0"), starts the introspection
// server and its runtime sampler in the background, and returns the bound
// address plus a shutdown function. Serving errors after a successful bind are
// ignored — introspection is best-effort and must never take down a campaign.
func Serve(addr string, s *Server) (boundAddr string, shutdown func(), err error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, fmt.Errorf("introspection listen %s: %w", addr, err)
	}
	srv := &http.Server{Handler: s.Handler(), ReadHeaderTimeout: 5 * time.Second}
	stopSampler := s.StartSampler(time.Second)
	go func() { _ = srv.Serve(ln) }()
	var stopped bool
	shutdown = func() {
		if stopped {
			return
		}
		stopped = true
		stopSampler()
		_ = srv.Close()
	}
	return ln.Addr().String(), shutdown, nil
}

// FormatStatusLine renders a one-line periodic status report for terminal
// output (cmd/hotg -status-every): the headline numbers in key=value form.
func FormatStatusLine(headline map[string]int64, order []string) string {
	var b strings.Builder
	for _, k := range order {
		v, ok := headline[k]
		if !ok {
			continue
		}
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%d", k, v)
	}
	return b.String()
}
