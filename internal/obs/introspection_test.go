package obs

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

var regen = flag.Bool("regen", false, "regenerate golden files")

// TestOpenMetricsGolden pins the exporter's exact output for a registry with
// all three metric kinds: deterministic order, counter _total suffix, summary
// quantiles, the trailing # EOF.
func TestOpenMetricsGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("search.runs").Add(42)
	r.Counter("smt.theory_conflicts").Add(7)
	r.Gauge("search.frontier.hot").Set(13)
	h := r.Histogram("fol.prove.ns")
	h.Observe(1000)
	h.Observe(1000)
	h.Observe(1000)
	var buf bytes.Buffer
	if err := WriteOpenMetrics(&buf, r); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "openmetrics.golden")
	if *regen {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -regen to create)", err)
	}
	if buf.String() != string(want) {
		t.Errorf("OpenMetrics output drifted from golden:\ngot:\n%swant:\n%s", buf.String(), want)
	}
}

// TestOpenMetricsParses runs a minimal syntactic validation over the export
// of a busy registry: every non-comment line is "name[{label}] value", names
// are in the Prometheus charset, families arrive sorted, and the stream ends
// with # EOF.
func TestOpenMetricsParses(t *testing.T) {
	r := NewRegistry()
	r.Counter("a.b.c").Inc()
	r.Gauge("z.9weird-name!").Set(-5)
	r.Histogram("lat.ns").Observe(123456)
	var buf bytes.Buffer
	if err := WriteOpenMetrics(&buf, r); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if lines[len(lines)-1] != "# EOF" {
		t.Fatalf("missing # EOF terminator: %q", lines[len(lines)-1])
	}
	validName := func(s string) bool {
		for i := 0; i < len(s); i++ {
			c := s[i]
			ok := c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_' || c == ':' || (c >= '0' && c <= '9' && i > 0)
			if !ok {
				return false
			}
		}
		return len(s) > 0
	}
	for _, ln := range lines[:len(lines)-1] {
		if strings.HasPrefix(ln, "# TYPE ") {
			parts := strings.Fields(ln)
			if len(parts) != 4 || !validName(parts[2]) {
				t.Errorf("malformed TYPE line: %q", ln)
			}
			continue
		}
		name, rest, ok := strings.Cut(ln, " ")
		if !ok {
			t.Errorf("sample line without value: %q", ln)
			continue
		}
		if i := strings.IndexByte(name, '{'); i >= 0 {
			if !strings.HasSuffix(name, "}") {
				t.Errorf("unterminated label set: %q", ln)
			}
			name = name[:i]
		}
		name = strings.TrimSuffix(strings.TrimSuffix(name, "_total"), "_sum")
		name = strings.TrimSuffix(name, "_count")
		if !validName(name) {
			t.Errorf("invalid metric name %q in line %q", name, ln)
		}
		var v int64
		if _, err := fmt.Sscanf(rest, "%d", &v); err != nil {
			t.Errorf("non-integer value in %q: %v", ln, err)
		}
	}
}

func TestSanitizeMetricName(t *testing.T) {
	for in, want := range map[string]string{
		"search.proof_cache.hits": "search_proof_cache_hits",
		"9lives":                  "_9lives",
		"ok_name:sub":             "ok_name:sub",
		"sp ace-dash":             "sp_ace_dash",
	} {
		if got := SanitizeMetricName(in); got != want {
			t.Errorf("SanitizeMetricName(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestFlightRecorderRing checks bounded retention: a ring of capacity 8 fed
// 100 events retains exactly the last 8, in order.
func TestFlightRecorderRing(t *testing.T) {
	r := NewFlightRecorder(8)
	for i := 1; i <= 100; i++ {
		r.Record(Event{Seq: int64(i), Kind: "k"})
	}
	if r.Total() != 100 || r.Cap() != 8 {
		t.Fatalf("total=%d cap=%d", r.Total(), r.Cap())
	}
	got := r.Snapshot()
	if len(got) != 8 {
		t.Fatalf("snapshot length %d, want 8", len(got))
	}
	for i, ev := range got {
		if ev.Seq != int64(93+i) {
			t.Fatalf("slot %d has seq %d, want %d", i, ev.Seq, 93+i)
		}
	}
}

// TestFlightRecorderConcurrentReads hammers Snapshot from several goroutines
// while the ring is written; every observed snapshot must be ascending in Seq
// (valid, untorn events). Run under -race this is also the memory-model check.
func TestFlightRecorderConcurrentReads(t *testing.T) {
	r := NewFlightRecorder(64)
	done := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				snap := r.Snapshot()
				for i := 1; i < len(snap); i++ {
					if snap[i].Seq <= snap[i-1].Seq {
						t.Errorf("snapshot not ascending: %d then %d", snap[i-1].Seq, snap[i].Seq)
						return
					}
				}
			}
		}()
	}
	for i := 1; i <= 50000; i++ {
		r.Record(Event{Seq: int64(i), Kind: "k", Num: map[string]int64{"i": int64(i)}})
	}
	close(done)
	wg.Wait()
}

// TestFlightRecorderSubscribe checks live tailing: events recorded after
// Subscribe arrive on the channel; a slow subscriber drops (counted) instead
// of stalling Record; cancel closes the channel and is idempotent.
func TestFlightRecorderSubscribe(t *testing.T) {
	r := NewFlightRecorder(16)
	r.Record(Event{Seq: 1}) // before subscription: not delivered
	ch, cancel := r.Subscribe(2)
	r.Record(Event{Seq: 2})
	r.Record(Event{Seq: 3})
	r.Record(Event{Seq: 4}) // buffer is 2: this one drops
	if ev := <-ch; ev.Seq != 2 {
		t.Fatalf("first delivered seq = %d, want 2", ev.Seq)
	}
	if ev := <-ch; ev.Seq != 3 {
		t.Fatalf("second delivered seq = %d, want 3", ev.Seq)
	}
	if dropped := cancel(); dropped != 1 {
		t.Fatalf("dropped = %d, want 1", dropped)
	}
	if _, open := <-ch; open {
		t.Fatal("channel still open after cancel")
	}
	if cancel() != 1 {
		t.Fatal("second cancel changed the drop count")
	}
	r.Record(Event{Seq: 5}) // after cancel: must not panic
}

// TestTracerRecorderIntegration checks that a tracer-attached recorder sees
// every emitted event with its assigned sequence number.
func TestTracerRecorderIntegration(t *testing.T) {
	rec := NewFlightRecorder(4)
	tr := NewTracer(nil).WithRecorder(rec)
	if tr.Recorder() != rec {
		t.Fatal("Recorder() accessor broken")
	}
	for i := 0; i < 6; i++ {
		tr.Emit(Event{Kind: "k"})
	}
	snap := rec.Snapshot()
	if len(snap) != 4 || snap[0].Seq != 3 || snap[3].Seq != 6 {
		t.Fatalf("recorder window wrong: %+v", snap)
	}
}

// errWriter fails after n bytes, for exercising the tracer error path.
type errWriter struct{ n int }

func (w *errWriter) Write(p []byte) (int, error) {
	if w.n <= 0 {
		return 0, errors.New("disk full")
	}
	if len(p) > w.n {
		p = p[:w.n]
	}
	w.n -= len(p)
	return len(p), nil
}

// TestTracerFlushAndErr checks the durable-boundary contract: Flush pushes
// buffered lines to the writer, and Err surfaces an emission error without
// (and before) Close.
func TestTracerFlushAndErr(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	tr.Emit(Event{Kind: "a"})
	// bufio holds the line until flushed.
	if buf.Len() != 0 {
		t.Skip("bufio flushed eagerly; buffer smaller than one event")
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 || !bytes.HasSuffix(buf.Bytes(), []byte("\n")) {
		t.Fatalf("flush left no complete line: %q", buf.String())
	}
	if tr.Err() != nil {
		t.Fatal("healthy tracer reports an error")
	}

	bad := NewTracer(&errWriter{n: 10})
	for i := 0; i < 2000; i++ { // overflow the 4KB bufio buffer to force a write
		bad.Emit(Event{Kind: "x", Num: map[string]int64{"i": int64(i)}})
	}
	if bad.Err() == nil {
		t.Fatal("Err() nil after writer failure")
	}
	if bad.Close() == nil {
		t.Fatal("Close() lost the emission error")
	}

	var nilT *Tracer
	if nilT.Flush() != nil || nilT.Err() != nil {
		t.Fatal("nil tracer Flush/Err must be no-ops")
	}
	nilT.WithRecorder(nil)
	if nilT.Recorder() != nil {
		t.Fatal("nil tracer Recorder must be nil")
	}
}

// TestPhaseTree checks the attribution arithmetic: totals come from the
// histograms' sums, self is parent minus children clamped at zero, and the
// sat-path widening keeps solver time visible when fol never ran.
func TestPhaseTree(t *testing.T) {
	r := NewRegistry()
	r.Counter("search.wall_ns").Add(int64(10 * time.Millisecond))
	r.Histogram("concolic.exec.ns").Observe(int64(2 * time.Millisecond))
	r.Histogram("fol.prove.ns").Observe(int64(6 * time.Millisecond))
	r.Histogram("smt.solve.ns").Observe(int64(4 * time.Millisecond))
	r.Histogram("smt.sat.ns").Observe(int64(1 * time.Millisecond))
	r.Histogram("smt.lia.ns").Observe(int64(2 * time.Millisecond))
	root := PhaseTree(r)
	if root == nil || root.Name != "search" {
		t.Fatalf("root = %+v", root)
	}
	if root.Total != 10*time.Millisecond {
		t.Fatalf("root total = %v", root.Total)
	}
	if root.Self != 2*time.Millisecond { // 10 - (2 exec + 6 fol)
		t.Fatalf("root self = %v", root.Self)
	}
	fol := root.Children[1]
	if fol.Name != "fol" || fol.Self != 2*time.Millisecond { // 6 - 4 smt
		t.Fatalf("fol = %+v", fol)
	}
	smt := fol.Children[0]
	if smt.Self != 1*time.Millisecond { // 4 - (1 sat + 2 simplex + 0 euf)
		t.Fatalf("smt self = %v", smt.Self)
	}

	table := PhaseTable(r)
	for _, want := range []string{"search", "exec", "fol", "smt", "sat", "simplex", "% of search"} {
		if !strings.Contains(table, want) {
			t.Errorf("phase table missing %q:\n%s", want, table)
		}
	}

	// Sat path: solver time without fol time must not vanish into a clamp.
	r2 := NewRegistry()
	r2.Counter("search.wall_ns").Add(int64(5 * time.Millisecond))
	r2.Histogram("smt.solve.ns").Observe(int64(3 * time.Millisecond))
	root2 := PhaseTree(r2)
	fol2 := root2.Children[1]
	if fol2.Total != 3*time.Millisecond || fol2.Self != 0 {
		t.Fatalf("sat-path widening broken: fol = %+v", fol2)
	}

	if PhaseTree(NewRegistry()) != nil {
		t.Fatal("empty registry should yield no phase tree")
	}
	if PhaseTree(nil) != nil || PhaseTable(nil) != "" {
		t.Fatal("nil registry should yield no phase tree")
	}
}
