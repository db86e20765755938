package obshttp_test

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"hotg/internal/concolic"
	"hotg/internal/lexapp"
	"hotg/internal/obs"
	"hotg/internal/obshttp"
	"hotg/internal/search"
)

// observedSearch runs the lexer higher-order search to completion with the
// full introspection apparatus attached and returns the observer and stats.
func observedSearch(t *testing.T) (*obs.Obs, *search.Stats) {
	t.Helper()
	w := lexapp.Lexer()
	eng := concolic.New(w.Build(), concolic.ModeHigherOrder)
	o := obs.New()
	o.Trace = obs.NewTracer(nil).Keep().WithRecorder(obs.NewFlightRecorder(obs.DefaultFlightRecorderSize))
	st := search.Run(eng, search.Options{
		MaxRuns: 120, Seeds: w.Seeds, Bounds: w.Bounds, Workers: 4, Obs: o,
	})
	return o, st
}

// TestIntrospectionEndToEnd is the acceptance test from the issue: after a
// campaign, /metrics serves parseable OpenMetrics and /statusz's counters
// match the search's final Stats; /events dumps the flight recorder; pprof
// answers.
func TestIntrospectionEndToEnd(t *testing.T) {
	o, st := observedSearch(t)
	srv := obshttp.New(o)
	srv.Info = func() map[string]int64 {
		return map[string]int64{"runs": int64(st.Runs), "bugs": int64(len(st.Bugs))}
	}
	stop := srv.StartSampler(10 * time.Millisecond)
	defer stop()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	// /metrics: OpenMetrics syntax — TYPE lines, name/value samples, # EOF.
	code, metrics := get("/metrics")
	if code != 200 {
		t.Fatalf("/metrics status %d", code)
	}
	if !strings.HasSuffix(metrics, "# EOF\n") {
		t.Fatal("/metrics missing # EOF terminator")
	}
	samples := map[string]int64{}
	for _, ln := range strings.Split(metrics, "\n") {
		if ln == "" || strings.HasPrefix(ln, "#") {
			continue
		}
		name, val, ok := strings.Cut(ln, " ")
		if !ok {
			t.Fatalf("malformed sample line %q", ln)
		}
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		var v int64
		if _, err := fmt.Sscanf(val, "%d", &v); err != nil {
			t.Fatalf("non-integer value in %q", ln)
		}
		samples[name] = v
	}
	if samples["search_runs_total"] != int64(st.Runs) {
		t.Errorf("search_runs_total = %d, want %d", samples["search_runs_total"], st.Runs)
	}
	if _, ok := samples["fol_prove_ns_sum"]; !ok {
		t.Error("histogram summary fol_prove_ns missing from /metrics")
	}
	if samples["runtime_goroutines"] == 0 {
		t.Error("sampler gauges missing from /metrics")
	}

	// /statusz: counters must equal the final Stats.
	code, body := get("/statusz")
	if code != 200 {
		t.Fatalf("/statusz status %d", code)
	}
	var status struct {
		Headline     map[string]int64 `json:"headline"`
		Metrics      map[string]int64 `json:"metrics"`
		Runtime      struct{ Goroutines int }
		Phases       *obs.PhaseNode `json:"phases"`
		FlightEvents int64          `json:"flight_events_total"`
	}
	if err := json.Unmarshal([]byte(body), &status); err != nil {
		t.Fatalf("/statusz is not JSON: %v\n%s", err, body)
	}
	for name, want := range map[string]int64{
		"search.runs":             int64(st.Runs),
		"search.tests_generated":  int64(st.TestsGenerated),
		"search.bugs":             int64(len(st.Bugs)),
		"search.live.runs":        int64(st.Runs),
		"search.live.tests":       int64(st.TestsGenerated),
		"search.live.bugs":        int64(len(st.Bugs)),
		"search.proof_cache.hits": int64(st.ProofCacheHits),
	} {
		if got := status.Metrics[name]; got != want {
			t.Errorf("/statusz metric %s = %d, want %d", name, got, want)
		}
	}
	if status.Headline["runs"] != int64(st.Runs) {
		t.Errorf("headline runs = %d, want %d", status.Headline["runs"], st.Runs)
	}
	if status.Phases == nil || status.Phases.Name != "search" {
		t.Error("/statusz missing phase attribution tree")
	}
	if status.FlightEvents == 0 {
		t.Error("/statusz reports zero flight events after a traced search")
	}

	// /statusz?format=html: the human view renders.
	code, html := get("/statusz?format=html")
	if code != 200 || !strings.Contains(html, "campaign status") || !strings.Contains(html, "phase self-time") {
		t.Errorf("/statusz?format=html incomplete (status %d)", code)
	}

	// /events: a JSONL dump of the flight recorder, every line an Event.
	code, events := get("/events")
	if code != 200 {
		t.Fatalf("/events status %d", code)
	}
	lines := strings.Split(strings.TrimRight(events, "\n"), "\n")
	if len(lines) == 0 || lines[0] == "" {
		t.Fatal("/events dump empty")
	}
	var lastSeq int64
	for _, ln := range lines {
		var ev obs.Event
		if err := json.Unmarshal([]byte(ln), &ev); err != nil {
			t.Fatalf("/events line is not an Event: %v\n%s", err, ln)
		}
		if ev.Seq <= lastSeq {
			t.Fatalf("/events not ascending: seq %d after %d", ev.Seq, lastSeq)
		}
		lastSeq = ev.Seq
	}

	// pprof answers on the same mux.
	if code, _ := get("/debug/pprof/"); code != 200 {
		t.Errorf("/debug/pprof/ status %d", code)
	}
	if code, _ := get("/debug/pprof/goroutine?debug=1"); code != 200 {
		t.Errorf("/debug/pprof/goroutine status %d", code)
	}

	// Index page links the endpoints; unknown paths 404.
	if code, body := get("/"); code != 200 || !strings.Contains(body, "/statusz") {
		t.Errorf("index page incomplete (status %d)", code)
	}
	if code, _ := get("/nosuch"); code != 404 {
		t.Errorf("unknown path served status %d, want 404", code)
	}
}

// TestEventsFollow checks the live tail: a follower receives events recorded
// after it connected, then the handler returns once max is reached. The
// handler subscribes before it sends the response headers, so the events
// emitted after the GET returns all reach the follower.
func TestEventsFollow(t *testing.T) {
	o := obs.New()
	rec := obs.NewFlightRecorder(16)
	o.Trace = obs.NewTracer(nil).WithRecorder(rec)
	o.Emit(obs.Event{Kind: "before"})
	srv := obshttp.New(o)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/events?follow=1&max=2")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	o.Emit(obs.Event{Kind: "tick"})
	o.Emit(obs.Event{Kind: "tick"})
	sc := bufio.NewScanner(resp.Body)
	var kinds []string
	for sc.Scan() {
		var ev obs.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("follow stream line not an Event: %v", err)
		}
		kinds = append(kinds, ev.Kind)
	}
	if got := strings.Join(kinds, ","); got != "before,tick,tick" {
		t.Fatalf("followed stream delivered %q, want the dump then both ticks", got)
	}
}

// TestServeBindsAndShutsDown checks the one-call wiring used by cmd/hotg.
func TestServeBindsAndShutsDown(t *testing.T) {
	o := obs.New()
	addr, shutdown, err := obshttp.Serve("127.0.0.1:0", obshttp.New(o))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatalf("bound server unreachable: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/metrics on bound server: status %d", resp.StatusCode)
	}
	shutdown()
	shutdown() // idempotent
	if _, err := http.Get("http://" + addr + "/metrics"); err == nil {
		t.Error("server still answering after shutdown")
	}

	if _, _, err := obshttp.Serve("256.0.0.1:bad", obshttp.New(o)); err == nil {
		t.Error("bad address bound successfully")
	}
}

// TestNilToleration: a server over nothing must serve empty answers, not
// panic — the CLI wires it up before deciding whether observability is on.
func TestNilToleration(t *testing.T) {
	srv := obshttp.New(nil)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	for _, path := range []string{"/metrics", "/statusz", "/events", "/statusz?format=html"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Errorf("%s on empty server: status %d", path, resp.StatusCode)
		}
	}
	stop := srv.StartSampler(time.Millisecond)
	stop()
}

func TestFormatStatusLine(t *testing.T) {
	line := obshttp.FormatStatusLine(
		map[string]int64{"runs": 40, "tests": 7, "bugs": 1},
		[]string{"runs", "tests", "bugs", "absent"})
	if line != "runs=40 tests=7 bugs=1" {
		t.Errorf("status line = %q", line)
	}
	if obshttp.FormatStatusLine(nil, []string{"runs"}) != "" {
		t.Error("empty headline should give empty line")
	}
}
