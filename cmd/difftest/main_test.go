package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"hotg/internal/obs"
)

func runCLI(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var out, errb bytes.Buffer
	code := run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestUsageErrors(t *testing.T) {
	if code, _, _ := runCLI(t); code != 2 {
		t.Error("no budget flags should exit 2")
	}
	if code, _, _ := runCLI(t, "-count", "1", "-jobs", "0"); code != 2 {
		t.Error("-jobs 0 should exit 2")
	}
	if code, _, stderr := runCLI(t, "-count", "1", "-fault", "nonsense"); code != 2 {
		t.Error("unknown -fault should exit 2")
	} else if !strings.Contains(stderr, "nonsense") {
		t.Errorf("stderr does not name the bad fault: %q", stderr)
	}
}

func TestCleanCampaignExitsZero(t *testing.T) {
	code, out, stderr := runCLI(t, "-seed", "1", "-count", "4", "-jobs", "2")
	if code != 0 {
		t.Fatalf("clean campaign exited %d\nstdout: %s\nstderr: %s", code, out, stderr)
	}
	if !strings.Contains(out, "4 cases, 0 findings") {
		t.Errorf("summary line missing: %q", out)
	}
}

func TestFaultDrillFindsAndLogs(t *testing.T) {
	if testing.Short() {
		t.Skip("fault drill shrinks findings; skipped in -short")
	}
	log := filepath.Join(t.TempDir(), "findings.jsonl")
	// Seed 41 is the committed vm-wrong-mod reproducer's origin; a window
	// around it must trip the O1 oracle under the injected fault.
	code, out, stderr := runCLI(t,
		"-seed", "40", "-count", "3", "-fault", "vm-wrong-mod", "-findings", log)
	if code != 1 {
		t.Fatalf("fault drill exited %d, want 1\nstdout: %s\nstderr: %s", code, out, stderr)
	}
	if !strings.Contains(out, "finding (seed") {
		t.Errorf("stdout has no finding line: %q", out)
	}

	f, err := os.Open(log)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	kinds := map[string]int{}
	var lastSummary map[string]any
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var ev struct {
			Kind string           `json:"kind"`
			Num  map[string]int64 `json:"num"`
			Str  map[string]any   `json:"str"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("findings log line is not JSON: %v\n%s", err, sc.Text())
		}
		kinds[ev.Kind]++
		if ev.Kind == "finding" {
			if ev.Str["oracle"] == "" || ev.Str["relation"] == "" {
				t.Errorf("finding event missing oracle/relation: %s", sc.Text())
			}
		}
		if ev.Kind == "summary" {
			lastSummary = map[string]any{"cases": ev.Num["cases"], "findings": ev.Num["findings"]}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if kinds["finding"] == 0 {
		t.Error("findings log has no finding events")
	}
	if kinds["summary"] != 1 {
		t.Errorf("findings log has %d summary events, want 1", kinds["summary"])
	}
	if lastSummary != nil && lastSummary["findings"].(int64) == 0 {
		t.Error("summary reports zero findings despite drill")
	}
}

func TestDurationBudgetStops(t *testing.T) {
	code, out, _ := runCLI(t, "-duration", "150ms", "-jobs", "2")
	if code != 0 {
		t.Fatalf("timed clean campaign exited %d: %s", code, out)
	}
	if !strings.Contains(out, "findings in") {
		t.Errorf("summary line missing: %q", out)
	}
}

// TestFlightDump checks -flight: the recorder's retained window lands on disk
// as JSONL (one obs.Event per line, ascending seq) including the campaign's
// finding events — the artifact CI uploads on smoke failure.
func TestFlightDump(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a fault-drill campaign")
	}
	path := filepath.Join(t.TempDir(), "flight.jsonl")
	code, out, stderr := runCLI(t, "-seed", "40", "-count", "3", "-fault", "vm-wrong-mod", "-flight", path, "-v")
	if code != 1 {
		t.Fatalf("fault drill exited %d\nstdout: %s\nstderr: %s", code, out, stderr)
	}
	if !strings.Contains(out, "flight recorder dumped to") {
		t.Errorf("no dump confirmation: %q", out)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var lastSeq int64
	kinds := map[string]int{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var ev obs.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("flight dump line is not an Event: %v\n%s", err, sc.Text())
		}
		if ev.Seq <= lastSeq {
			t.Fatalf("flight dump not ascending: seq %d after %d", ev.Seq, lastSeq)
		}
		lastSeq = ev.Seq
		kinds[ev.Kind]++
	}
	if kinds["finding"] == 0 || kinds["case"] == 0 || kinds["summary"] != 1 {
		t.Errorf("flight dump kinds = %v, want case+finding events and one summary", kinds)
	}
}

// TestHTTPLiveFindings checks -http: /statusz reports the campaign's live
// case/finding counters (matching the final summary once the run ends). The
// CLI's announcement of its address is held until the GET is done, so the
// campaign cannot finish (and shut its server down) under the request; no
// retry is needed either, since obshttp.Serve binds before it returns.
func TestHTTPLiveFindings(t *testing.T) {
	out := newLineWatch(func(ln string) bool { return strings.HasPrefix(ln, "introspection: http://") })
	out.hold = make(chan struct{})
	release := sync.OnceFunc(func() { close(out.hold) })
	defer release() // a failed request must not leave run() blocked
	var errb lineWatch
	codeCh := make(chan int, 1)
	go func() {
		codeCh <- run([]string{"-seed", "1", "-count", "60", "-jobs", "2", "-http", "127.0.0.1:0"}, out, &errb)
	}()
	var addr string
	select {
	case ln := <-out.seen:
		addr = strings.TrimSuffix(strings.TrimPrefix(ln, "introspection: http://"), "/statusz")
	case code := <-codeCh:
		t.Fatalf("campaign exited %d without announcing an introspection address\nstderr: %s", code, errb.String())
	}
	resp, err := http.Get("http://" + addr + "/statusz")
	if err != nil {
		t.Fatalf("GET /statusz: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	release()
	var status struct {
		Headline map[string]int64 `json:"headline"`
	}
	if err := json.Unmarshal(body, &status); err != nil {
		t.Fatalf("/statusz not JSON: %v\n%s", err, body)
	}
	if _, ok := status.Headline["cases"]; !ok {
		t.Errorf("/statusz headline missing cases: %s", body)
	}
	if code := <-codeCh; code != 0 {
		t.Fatalf("campaign exited %d\nstdout: %s\nstderr: %s", code, out.String(), errb.String())
	}
	if !strings.Contains(out.String(), "60 cases, 0 findings") {
		t.Errorf("summary line missing: %q", out.String())
	}
}

// lineWatch is a goroutine-safe buffer for watching CLI output mid-run. The
// first written line that satisfies match is sent on seen; with hold set,
// that Write then blocks until hold is closed, keeping the CLI at that line.
type lineWatch struct {
	mu    sync.Mutex
	buf   bytes.Buffer
	match func(line string) bool
	seen  chan string
	hold  chan struct{}
}

func newLineWatch(match func(line string) bool) *lineWatch {
	return &lineWatch{match: match, seen: make(chan string, 1)}
}

func (b *lineWatch) Write(p []byte) (int, error) {
	b.mu.Lock()
	n, err := b.buf.Write(p)
	var hit string
	found := false
	if b.match != nil {
		for _, ln := range strings.Split(string(p), "\n") {
			if b.match(ln) {
				hit, found, b.match = ln, true, nil
				break
			}
		}
	}
	b.mu.Unlock()
	if found {
		b.seen <- hit
		if b.hold != nil {
			<-b.hold
		}
	}
	return n, err
}

func (b *lineWatch) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}
