package serve_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"hotg/internal/obs"
	"hotg/internal/obshttp"
	"hotg/internal/serve"
)

// newHTTPServer mounts the campaign API on an introspection server, the
// production wiring: one port serves /api/v1/, /statusz, and /metrics.
func newHTTPServer(t *testing.T, opts serve.Options) (*serve.Server, *httptest.Server) {
	t.Helper()
	if opts.Obs == nil {
		opts.Obs = obs.New()
	}
	s := newServer(t, opts)
	intro := obshttp.New(opts.Obs)
	intro.Info = s.Info
	intro.Sessions = s.SessionStatuses
	intro.Mounts = map[string]http.Handler{"/api/": s.Handler()}
	ts := httptest.NewServer(intro.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })
	return s, ts
}

func postCampaign(t *testing.T, ts *httptest.Server, spec serve.Spec) (serve.Status, *http.Response) {
	t.Helper()
	body, _ := json.Marshal(spec)
	resp, err := http.Post(ts.URL+"/api/v1/campaigns", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st serve.Status
	_ = json.NewDecoder(resp.Body).Decode(&st)
	return st, resp
}

func getJSON(t *testing.T, url string, v any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if v != nil {
		_ = json.NewDecoder(resp.Body).Decode(v)
	}
	return resp
}

// TestHTTPLifecycle drives one campaign through the REST API: submit (202),
// poll status, fetch the result, read the flight events, and see the
// session on /statusz.
func TestHTTPLifecycle(t *testing.T) {
	_, ts := newHTTPServer(t, serve.Options{})

	st, resp := postCampaign(t, ts, serve.Spec{Workload: "foo", MaxRuns: 25, Workers: 1})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d, want 202", resp.StatusCode)
	}
	loc := resp.Header.Get("Location")
	if loc == "" || st.ID == "" {
		t.Fatalf("submit response missing Location/ID: %+v", st)
	}

	deadline := time.Now().Add(30 * time.Second)
	for {
		var cur serve.Status
		getJSON(t, ts.URL+loc, &cur)
		if cur.State == serve.StateDone {
			break
		}
		if cur.State == serve.StateFailed {
			t.Fatalf("session failed: %s", cur.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("session stuck in %s", cur.State)
		}
		time.Sleep(5 * time.Millisecond)
	}

	var res serve.Result
	if resp := getJSON(t, ts.URL+loc+"/result", &res); resp.StatusCode != http.StatusOK {
		t.Fatalf("result: status %d", resp.StatusCode)
	}
	if res.TestsGenerated == 0 || len(res.Tests) == 0 {
		t.Fatalf("empty result over HTTP: %+v", res)
	}

	// Events: the JSONL dump must parse line by line as obs events.
	evResp, err := http.Get(ts.URL + loc + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer evResp.Body.Close()
	sc := bufio.NewScanner(evResp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lines := 0
	for sc.Scan() {
		var ev map[string]any
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad event line %q: %v", sc.Text(), err)
		}
		lines++
	}
	if lines == 0 {
		t.Fatal("no flight events for a finished session")
	}

	// /statusz carries the per-session row.
	var statusz obshttp.Statusz
	getJSON(t, ts.URL+"/statusz", &statusz)
	if len(statusz.Sessions) != 1 || statusz.Sessions[0].ID != st.ID {
		t.Fatalf("statusz sessions = %+v", statusz.Sessions)
	}
	if statusz.Headline["sessions_total"] != 1 {
		t.Fatalf("statusz headline = %+v", statusz.Headline)
	}
}

// TestHTTPErrorMapping checks each error path's status code: 400 bad spec,
// 404 unknown session, 409 conflict, 429 queue full with Retry-After, and
// 410 for evicted results.
func TestHTTPErrorMapping(t *testing.T) {
	s, ts := newHTTPServer(t, serve.Options{MaxConcurrent: 1, MaxQueue: 1, MemoryBudget: 1})

	if _, resp := postCampaign(t, ts, serve.Spec{Workload: "no-such"}); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad spec: status %d, want 400", resp.StatusCode)
	}
	if resp := getJSON(t, ts.URL+"/api/v1/campaigns/s999999", nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown id: status %d, want 404", resp.StatusCode)
	}

	// Fill the slot and the queue with a slow session and a queued one.
	slow, _ := postCampaign(t, ts, serve.Spec{Workload: "lexer", MaxRuns: 3000, Workers: 1, CorpusID: "slot"})
	if _, resp := postCampaign(t, ts, serve.Spec{Workload: "foo", MaxRuns: 5, Workers: 1}); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("queued submit: status %d", resp.StatusCode)
	}
	if _, resp := postCampaign(t, ts, serve.Spec{Workload: "bar", MaxRuns: 5, Workers: 1}); resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("over-queue submit: status %d, want 429", resp.StatusCode)
	} else if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	if _, resp := postCampaign(t, ts, serve.Spec{Workload: "lexer", CorpusID: "slot"}); resp.StatusCode != http.StatusConflict {
		t.Errorf("corpus conflict: status %d, want 409", resp.StatusCode)
	}

	// Result before done: 409.
	if resp := getJSON(t, ts.URL+"/api/v1/campaigns/"+slow.ID+"/result", nil); resp.StatusCode != http.StatusConflict {
		t.Errorf("early result: status %d, want 409", resp.StatusCode)
	}

	// Cancel the slow session over HTTP and let the queue drain.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/api/v1/campaigns/"+slow.ID, nil)
	if resp, err := http.DefaultClient.Do(req); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: %v status %d", err, resp.StatusCode)
	}

	// Memory budget 1 byte: all but the newest finisher evicted → 410 with
	// a recovery hint. A session turns terminal just before its result is
	// charged to the budget, so the eviction it causes can trail the last
	// state change; wait for the eviction itself, not for the states.
	var sessions []serve.Status
	evictedID := ""
	deadline := time.Now().Add(60 * time.Second)
	for evictedID == "" && time.Now().Before(deadline) {
		getJSON(t, ts.URL+"/api/v1/campaigns", &sessions)
		for _, cur := range sessions {
			if cur.State == serve.StateEvicted {
				evictedID = cur.ID
			}
		}
		if evictedID == "" {
			time.Sleep(10 * time.Millisecond)
		}
	}
	if evictedID == "" {
		t.Fatalf("no evicted session among %+v", sessions)
	}
	resp := getJSON(t, ts.URL+"/api/v1/campaigns/"+evictedID+"/result", nil)
	if resp.StatusCode != http.StatusGone {
		t.Errorf("evicted result: status %d, want 410", resp.StatusCode)
	}

	// Draining: all submissions bounce with 503.
	go s.Drain(time.Minute)
	deadline = time.Now().Add(10 * time.Second)
	for !s.Draining() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if _, resp := postCampaign(t, ts, serve.Spec{Workload: "foo"}); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("drain submit: status %d, want 503", resp.StatusCode)
	}
}

// TestHTTPFollowEvents streams a live session's events with ?follow=1 and
// sees at least one event arrive after the dump.
func TestHTTPFollowEvents(t *testing.T) {
	_, ts := newHTTPServer(t, serve.Options{})
	st, _ := postCampaign(t, ts, serve.Spec{Workload: "lexer", MaxRuns: 400, Workers: 1})

	// Wait for the session to start so the recorder exists.
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		var cur serve.Status
		getJSON(t, ts.URL+"/api/v1/campaigns/"+st.ID, &cur)
		if cur.State == serve.StateRunning || cur.State == serve.StateDone {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	resp, err := http.Get(ts.URL + "/api/v1/campaigns/" + st.ID + "/events?follow=1&max=5")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "jsonl") {
		t.Fatalf("content type %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lines := 0
	for sc.Scan() && lines < 5 {
		lines++
	}
	if lines == 0 {
		t.Fatal("followed stream delivered nothing")
	}
}
