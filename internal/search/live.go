package search

import "hotg/internal/obs"

// liveGauges publishes the coordinator's in-flight progress into the metrics
// registry so a live introspection server (/statusz, /metrics) can watch a
// campaign mid-run. The handles are resolved once — the per-iteration cost is
// a handful of atomic stores, and with observability disabled every handle is
// nil and each Set is a single pointer check.
//
// Gauges are registry-only: they never touch the tracer, so the canonical
// trace stream is identical whether or not anyone is watching.
type liveGauges struct {
	frontierHot  *obs.Gauge
	frontierCold *obs.Gauge
	runs         *obs.Gauge
	tests        *obs.Gauge
	bugs         *obs.Gauge
	remaining    *obs.Gauge
}

func (g *liveGauges) init(o *obs.Obs) {
	if !o.Enabled() {
		return
	}
	g.frontierHot = o.Gauge("search.frontier.hot")
	g.frontierCold = o.Gauge("search.frontier.cold")
	g.runs = o.Gauge("search.live.runs")
	g.tests = o.Gauge("search.live.tests")
	g.bugs = o.Gauge("search.live.bugs")
	g.remaining = o.Gauge("search.live.runs_remaining")
}

// publish refreshes the live view from the coordinator state. Called between
// work units (coordinator goroutine only) and once more after the last one,
// so the post-run values equal the search's final Stats.
func (s *searcher) publishLive() {
	g := &s.live
	if g.runs == nil {
		return
	}
	g.frontierHot.Set(int64(len(s.hot)))
	g.frontierCold.Set(int64(len(s.cold)))
	g.runs.Set(int64(s.stats.Runs))
	g.tests.Set(int64(s.stats.TestsGenerated))
	g.bugs.Set(int64(len(s.stats.Bugs)))
	rem := s.opts.MaxRuns - s.stats.Runs
	if rem < 0 {
		rem = 0
	}
	g.remaining.Set(int64(rem))
}
