package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"hotg"
	"hotg/internal/campaign"
)

var regen = flag.Bool("regen", false, "regenerate golden files")

func runCLI(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var out, errb bytes.Buffer
	code := run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestUnknownModeRejected(t *testing.T) {
	code, _, stderr := runCLI(t, "-workload", "foo", "-mode", "nonsense")
	if code == 0 {
		t.Fatal("unknown -mode exited 0")
	}
	if !strings.Contains(stderr, `"nonsense"`) {
		t.Errorf("stderr does not name the bad mode: %q", stderr)
	}
	for _, m := range validModes {
		if !strings.Contains(stderr, m) {
			t.Errorf("stderr does not list valid mode %q: %q", m, stderr)
		}
	}
}

func TestUnknownWorkloadRejected(t *testing.T) {
	code, _, stderr := runCLI(t, "-workload", "nonsense")
	if code == 0 {
		t.Fatal("unknown -workload exited 0")
	}
	if !strings.Contains(stderr, `"nonsense"`) {
		t.Errorf("stderr does not name the bad workload: %q", stderr)
	}
	for _, name := range []string{"obscure", "foo", "lexer"} {
		if !strings.Contains(stderr, name) {
			t.Errorf("stderr does not list valid workload %q: %q", name, stderr)
		}
	}
}

func TestCampaignFlagValidation(t *testing.T) {
	if code, _, _ := runCLI(t, "-workload", "foo", "-checkpoint-every", "5"); code == 0 {
		t.Error("-checkpoint-every without -corpus exited 0")
	}
	if code, _, _ := runCLI(t, "-workload", "foo", "-mode", "random", "-corpus", t.TempDir()); code == 0 {
		t.Error("-corpus with random mode exited 0")
	}
}

// TestBudgetFlagTimesOut checks -budget, the whole search's wall-clock
// ceiling: a run budget far beyond what 50ms allows ends on the deadline, and
// the partial result is a normal exit whose summary says it timed out.
func TestBudgetFlagTimesOut(t *testing.T) {
	code, stdout, stderr := runCLI(t, "-workload", "lexer", "-runs", "100000", "-budget", "50ms")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	summary, _, _ := strings.Cut(stdout, "\n")
	if !strings.Contains(summary, "(timed out)") {
		t.Errorf("summary line does not say the search timed out: %q", summary)
	}
}

// TestCampaignCLIRoundTrip drives a campaign directory through its
// lifecycle: a session interrupted after its first checkpoint (built through
// StartCampaign and a cancelled context), a plain -corpus session that
// resumes it and runs it to completion, and one more that, with the finished
// search's checkpoints retired, seeds from the corpus.
func TestCampaignCLIRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w, _ := hotg.GetWorkload("scanner")
	eng := hotg.NewEngine(w.Build(), hotg.ModeHigherOrder)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opts := hotg.SearchOptions{
		MaxRuns: 30, Seeds: w.Seeds, Bounds: w.Bounds, Workers: 1, Ctx: ctx,
		Checkpoint: hotg.CheckpointOptions{Every: 5, Sink: func(*hotg.Snapshot) error {
			cancel()
			return nil
		}},
	}
	camp, err := hotg.StartCampaign(dir, w.Name, eng, &opts)
	if err != nil {
		t.Fatal(err)
	}
	st := hotg.Explore(eng, opts)
	if err := camp.Finish(st); err != nil {
		t.Fatal(err)
	}
	if !st.Budget.Cancelled {
		t.Fatalf("interrupted session was not cancelled: %s", st.Summary())
	}

	// -runs differs from the interrupted session's budget; the resume keeps
	// the checkpoint's.
	code, stdout, stderr := runCLI(t,
		"-workload", "scanner", "-runs", "7", "-corpus", dir, "-checkpoint-every", "5")
	if code != 0 {
		t.Fatalf("resume session exited %d\nstderr: %s", code, stderr)
	}
	if want := fmt.Sprintf("resuming campaign %s at run %d", dir, st.Runs); !strings.Contains(stdout, want) {
		t.Errorf("resume session did not announce %q:\n%s", want, stdout)
	}
	if !strings.Contains(stdout, "runs=30 ") {
		t.Errorf("resume session did not run to the checkpoint's budget:\n%s", stdout)
	}
	if _, err := os.Stat(filepath.Join(dir, "checkpoints", "latest.json")); !os.IsNotExist(err) {
		t.Errorf("a finished session kept its checkpoint (stat err %v)", err)
	}

	code, stdout, stderr = runCLI(t, "-workload", "scanner", "-runs", "30", "-corpus", dir)
	if code != 0 {
		t.Fatalf("corpus-seeded session exited %d\nstderr: %s", code, stderr)
	}
	if !strings.Contains(stdout, "seeding from corpus") || strings.Contains(stdout, "resuming") {
		t.Errorf("session after completion did not seed from the corpus:\n%s", stdout)
	}
	if !strings.Contains(stdout, "(0 new)") {
		t.Errorf("corpus-seeded session reported new crash buckets:\n%s", stdout)
	}
}

// TestCampaignCLILockHeld: a -corpus session over a directory whose lock a
// live process holds (another hotg session, say; simulated by holding the lock
// in-test) is refused with the owner's pid and leaves the corpus untouched.
func TestCampaignCLILockHeld(t *testing.T) {
	dir := t.TempDir()
	lock, err := campaign.AcquireLock(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer lock.Release()
	code, _, stderr := runCLI(t, "-workload", "foo", "-runs", "10", "-corpus", dir)
	if code == 0 {
		t.Fatal("session over a locked corpus exited 0")
	}
	if want := fmt.Sprintf("locked by live session (pid %d)", os.Getpid()); !strings.Contains(stderr, want) {
		t.Errorf("stderr = %q, want it to name the holder: %q", stderr, want)
	}
	if _, err := os.Stat(filepath.Join(dir, "manifest.json")); !os.IsNotExist(err) {
		t.Errorf("refused session wrote a manifest (stat err %v)", err)
	}

	// Released, the same directory is usable, and the session's own lock is
	// gone when it exits.
	lock.Release()
	if code, _, stderr := runCLI(t, "-workload", "foo", "-runs", "10", "-corpus", dir); code != 0 {
		t.Fatalf("session after release exited %d\nstderr: %s", code, stderr)
	}
	if _, err := os.Stat(filepath.Join(dir, "LOCK")); !os.IsNotExist(err) {
		t.Errorf("session left its lock behind (stat err %v)", err)
	}
}

// TestFuncValGolden pins the stable rendering of function-valued inputs: on
// every callback workload the single-worker higher-order run is canonical, so
// the whole report — including each bug's synthesized decision tables and the
// -samples-out store it leaves behind — is byte-reproducible. Regenerate with
// `go test ./cmd/hotg -run TestFuncValGolden -regen` after an intentional
// trajectory change.
func TestFuncValGolden(t *testing.T) {
	var report bytes.Buffer
	for _, name := range []string{"cb-filter", "cb-sortguard", "cb-fold"} {
		path := filepath.Join(t.TempDir(), "samples.json")
		code, stdout, stderr := runCLI(t, "-workload", name, "-mode", "higher-order",
			"-runs", "40", "-workers", "1", "-v", "-samples-out", path)
		if code != 0 {
			t.Fatalf("%s exited %d\nstderr: %s", name, code, stderr)
		}
		if !strings.Contains(stdout, "funcs=[fn/") {
			t.Fatalf("%s report renders no function inputs:\n%s", name, stdout)
		}
		samples, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&report, "== %s ==\n", name)
		// The samples path is a temp dir; normalize it out of the golden.
		report.WriteString(strings.ReplaceAll(stdout, path, "SAMPLES"))
		report.Write(samples)
	}
	golden := filepath.Join("testdata", "funcval.golden")
	if *regen {
		if err := os.WriteFile(golden, report.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -regen to create)", err)
	}
	if !bytes.Equal(report.Bytes(), want) {
		t.Errorf("function-input report drifted from golden (run with -regen if intended):\ngot:\n%swant:\n%s",
			report.Bytes(), want)
	}
}

func TestSamplesOutAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "samples.json")
	code, _, stderr := runCLI(t, "-workload", "foo", "-runs", "20", "-samples-out", path)
	if code != 0 {
		t.Fatalf("exited %d\nstderr: %s", code, stderr)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("samples file missing: %v", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), ".") {
			t.Errorf("leftover temp file %q", e.Name())
		}
	}
}

// TestListGolden pins the -list output: workloads sorted by name with their
// descriptions, then the mode ladder. Regenerate with
// `go run ./cmd/hotg -list > cmd/hotg/testdata/list.golden` after adding a
// workload.
func TestListGolden(t *testing.T) {
	code, out, stderr := runCLI(t, "-list")
	if code != 0 {
		t.Fatalf("-list exited %d: %s", code, stderr)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "list.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if out != string(want) {
		t.Errorf("-list drifted from golden:\ngot:\n%swant:\n%s", out, want)
	}

	// The workload block must be sorted regardless of registration order.
	var names []string
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "  ") {
			if f := strings.Fields(line); len(f) > 0 {
				names = append(names, f[0])
			}
		}
	}
	if len(names) < 5 {
		t.Fatalf("-list shows %d workloads, expected more", len(names))
	}
	if !sort.StringsAreSorted(names) {
		t.Errorf("-list workloads are not sorted: %v", names)
	}
}

// lineWatch is a goroutine-safe buffer for watching CLI output while run()
// is still executing. The first written line that satisfies match is sent on
// seen; with hold set, that Write then blocks until hold is closed. The CLI
// writes synchronously, so a held line keeps it (and its introspection
// server) alive while the test looks.
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

// TestHTTPIntrospectionLive boots the CLI with -http on an ephemeral port and
// hits all four endpoint families while the search is running: the first
// status line reporting applied runs is held until the requests are done, so
// the process cannot exit (and shut its server down) under them. Then it
// checks the run completed cleanly with status lines printed.
func TestHTTPIntrospectionLive(t *testing.T) {
	out := newLineWatch(func(ln string) bool { return strings.HasPrefix(ln, "introspection: http://") })
	errb := newLineWatch(func(ln string) bool {
		rest, ok := strings.CutPrefix(ln, "status: runs=")
		runs, _, _ := strings.Cut(rest, " ")
		n, _ := strconv.Atoi(runs)
		return ok && n > 0
	})
	errb.hold = make(chan struct{})
	release := sync.OnceFunc(func() { close(errb.hold) })
	defer release() // a failed request must not leave run() blocked
	codeCh := make(chan int, 1)
	go func() {
		codeCh <- run([]string{
			"-workload", "lexer", "-mode", "higher-order", "-runs", "250",
			"-http", "127.0.0.1:0", "-status-every", "1ms",
		}, out, errb)
	}()

	var addr string
	select {
	case ln := <-out.seen:
		addr = strings.TrimSuffix(strings.TrimPrefix(ln, "introspection: http://"), "/statusz")
	case code := <-codeCh:
		t.Fatalf("run exited %d without announcing an introspection address\nstdout:\n%s", code, out.String())
	}
	select {
	case <-errb.seen:
	case code := <-codeCh:
		t.Fatalf("run exited %d before a status line reported applied runs\nstderr:\n%s", code, errb.String())
	}

	// All four endpoint families answer while the process is live.
	for _, path := range []string{"/statusz", "/metrics", "/events", "/debug/pprof/"} {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Errorf("%s: status %d", path, resp.StatusCode)
		}
		if len(body) == 0 {
			t.Errorf("%s: empty body", path)
		}
	}
	release()

	if code := <-codeCh; code != 0 {
		t.Fatalf("run exited %d\nstdout:\n%s\nstderr:\n%s", code, out.String(), errb.String())
	}
	if !strings.Contains(errb.String(), "status: ") {
		t.Errorf("-status-every printed no status lines:\n%s", errb.String())
	}

	// The flag still validates: a malformed address is a usage error.
	if code, _, stderr := runCLI(t, "-workload", "lexer", "-runs", "10", "-http", "256.0.0.1:x"); code != 2 ||
		!strings.Contains(stderr, "introspection listen") {
		t.Errorf("bad -http address: code %d, stderr %q", code, stderr)
	}
}

// TestProfilePhaseTable checks -profile now ends with the phase self-time
// attribution.
func TestProfilePhaseTable(t *testing.T) {
	code, stdout, _ := runCLI(t, "-workload", "lexer", "-mode", "higher-order", "-runs", "60", "-profile")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(stdout, "phase self-time:") || !strings.Contains(stdout, "% of search") {
		t.Errorf("missing phase table:\n%s", stdout)
	}
	for _, phase := range []string{"search", "fol", "smt"} {
		if !strings.Contains(stdout, phase) {
			t.Errorf("phase table missing %q", phase)
		}
	}
}
