package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"time"

	// obs.PhaseTree is the program's own attribution of search time to
	// layers; the facade exposes only its rendered table.
	"hotg/internal/obs"
)

// span is one traced facade call made by the benchmark. Spans of one search
// (or one batch of set-ups) share Search; Parent is the enclosing span's ID,
// 0 at top level. Times are nanoseconds since the tracer started.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Search int    `json:"search"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) seconds() float64 { return float64(s.End-s.Start) / 1e9 }

// tracer keeps the spans of a traced run in memory until write. A nil tracer
// records nothing. Spans nest on one goroutine: the search calls OnRun and the
// checkpoint sink synchronously on its coordinator while the caller waits.
type tracer struct {
	t0     time.Time
	spans  []span
	open   []int // indices of the spans still open, innermost last
	search int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// next starts a new search ID for the spans that follow.
func (t *tracer) next() int {
	if t == nil {
		return 0
	}
	t.search++
	return t.search
}

// do runs f, recording it as a span named name.
func (t *tracer) do(name string, f func()) {
	if t == nil {
		f()
		return
	}
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.spans[t.open[n-1]].ID
	}
	i := len(t.spans)
	t.spans = append(t.spans, span{ID: i + 1, Parent: parent, Search: t.search, Name: name,
		Start: time.Since(t.t0).Nanoseconds()})
	t.open = append(t.open, i)
	f()
	t.open = t.open[:len(t.open)-1]
	t.spans[i].End = time.Since(t.t0).Nanoseconds()
}

// total is the summed duration of one search's spans named name, in seconds.
func (t *tracer) total(search int, name string) float64 {
	var s float64
	for _, sp := range t.spans {
		if sp.Search == search && sp.Name == name {
			s += sp.seconds()
		}
	}
	return s
}

// each is the duration of every span named name, in seconds.
func (t *tracer) each(name string) []float64 {
	var out []float64
	for _, sp := range t.spans {
		if sp.Name == name {
			out = append(out, sp.seconds())
		}
	}
	return out
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(map[string][]span{"spans": t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// gcDelta is the garbage collector's work over an interval.
type gcDelta struct {
	alloc  uint64 // bytes allocated
	cycles uint32
	pause  time.Duration
}

func readGC() gcDelta {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return gcDelta{m.TotalAlloc, m.NumGC, time.Duration(m.PauseTotalNs)}
}

func (g gcDelta) sub(h gcDelta) gcDelta {
	return gcDelta{g.alloc - h.alloc, g.cycles - h.cycles, g.pause - h.pause}
}

func (g gcDelta) add(h gcDelta) gcDelta {
	return gcDelta{g.alloc + h.alloc, g.cycles + h.cycles, g.pause + h.pause}
}

// registry reads a traced search's metrics: a histogram's value is its sum.
func registry(o *outcome) map[string]float64 {
	vals := map[string]float64{}
	for _, m := range o.obs.Metrics.Snapshot() {
		v := m.Value
		if m.Kind == "histogram" {
			v = m.Sum
		}
		vals[m.Name] = float64(v)
	}
	return vals
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics computes the per-layer metrics of a traced run: each is the
// median over the traced 1-worker searches of its per-search value, except
// search.util (traced W-worker searches), the per-call medians of mini.build_s,
// campaign.load_s and campaign.validate_s, and trace.overhead_frac, which
// compares the pooled untraced and traced 1-worker throughput.
func layerMetrics(tr *tracer, untraced, traced1, tracedW []*outcome) map[string]metric {
	vals := map[*outcome]map[string]float64{}
	for _, o := range traced1 {
		vals[o] = registry(o)
	}
	m := map[string]metric{}
	per := func(name, unit string, f func(o *outcome, v map[string]float64) float64) {
		m[name] = metric{medianOf(traced1, func(o *outcome) float64 { return f(o, vals[o]) }), unit}
	}
	sec := func(name, key string) {
		per(name, "s", func(_ *outcome, v map[string]float64) float64 { return v[key] / 1e9 })
	}
	count := func(name, key string) {
		per(name, "count", func(_ *outcome, v map[string]float64) float64 { return v[key] })
	}

	m["mini.build_s"] = metric{median(tr.each("build")), "s"}

	sec("concolic.exec_s", "concolic.exec.ns")
	count("concolic.runs", "concolic.runs")
	count("concolic.steps", "concolic.steps")
	per("concolic.ns_per_step", "ns", func(_ *outcome, v map[string]float64) float64 {
		return ratio(v["concolic.exec.ns"], v["concolic.steps"])
	})
	count("concolic.samples_learned", "concolic.samples.learned")

	sec("fol.prove_s", "fol.prove.ns")
	count("fol.prove.calls", "fol.prove.calls")
	per("fol.prove.proved_ratio", "frac", func(_ *outcome, v map[string]float64) float64 {
		return ratio(v["fol.prove.proved"], v["fol.prove.calls"])
	})
	count("fol.prove.nodes", "fol.prove.nodes")

	sec("smt.solve_s", "smt.solve.ns")
	count("smt.solve.calls", "smt.solve.calls")
	sec("smt.sat_s", "smt.sat.ns")
	sec("smt.lia_s", "smt.lia.ns")
	sec("smt.euf_s", "smt.euf.ns")
	per("smt.ctx.memo_hit_ratio", "frac", func(_ *outcome, v map[string]float64) float64 {
		return ratio(v["smt.ctx.memo_hits"], v["smt.ctx.checks"])
	})

	sec("search.wall_s", "search.wall_ns")
	per("search.self_s", "s", func(o *outcome, _ map[string]float64) float64 {
		if root := obs.PhaseTree(o.obs.Metrics); root != nil {
			return root.Self.Seconds()
		}
		return 0
	})
	per("search.proof_cache.hit_ratio", "frac", func(_ *outcome, v map[string]float64) float64 {
		return ratio(v["search.proof_cache.hits"], v["search.proof_cache.hits"]+v["search.proof_cache.misses"])
	})
	// Busy time is what the phase tree attributes to execution and proving
	// (or solving), summed over workers.
	m["search.util"] = metric{medianOf(tracedW, func(o *outcome) float64 {
		root := obs.PhaseTree(o.obs.Metrics)
		if root == nil {
			return 0
		}
		var busy time.Duration
		for _, c := range root.Children {
			busy += c.Total
		}
		return ratio(busy.Seconds(), root.Total.Seconds()*float64(o.workers))
	}), "frac"}

	for name, call := range map[string]string{
		"campaign.record_s": "RecordRun", "campaign.checkpoint_s": "SaveCheckpoint", "campaign.commit_s": "Commit",
	} {
		per(name, "s", func(o *outcome, _ map[string]float64) float64 { return tr.total(o.id, call) })
	}
	per("campaign.checkpoint_bytes", "bytes", func(o *outcome, _ map[string]float64) float64 {
		return float64(o.ckptBytes)
	})
	m["campaign.load_s"] = metric{median(tr.each("LatestCheckpoint")), "s"}
	m["campaign.validate_s"] = metric{median(tr.each("Validate")), "s"}

	per("gc.alloc_mb", "MB", func(o *outcome, _ map[string]float64) float64 { return float64(o.gc.alloc) / (1 << 20) })
	per("gc.cycles", "count", func(o *outcome, _ map[string]float64) float64 { return float64(o.gc.cycles) })
	per("gc.pause_s", "s", func(o *outcome, _ map[string]float64) float64 { return o.gc.pause.Seconds() })

	m["trace.overhead_frac"] = metric{ratio(pooledRate(untraced), pooledRate(traced1)) - 1, "frac"}
	return m
}
