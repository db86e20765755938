package obs

import (
	"fmt"
	"strings"
	"time"
)

// PhaseNode is one row of the phase attribution tree: where the pipeline's
// time went, with Self = Total − Σ(children), clamped at zero. The tree is
// reconstructed from the existing latency histograms and counters, so it is
// an attribution, not a profile: with more than one worker the aggregate
// child time can exceed the parent's wall clock (parallel speedup), and on
// the satisfiability path solver time is reported under fol even though the
// search calls smt directly — both show up as a clamped (zero) Self.
type PhaseNode struct {
	Name     string        `json:"name"`
	Total    time.Duration `json:"total_ns"`
	Self     time.Duration `json:"self_ns"`
	Children []*PhaseNode  `json:"children,omitempty"`
}

// phaseTotal sums the named metrics' values: counters contribute their count,
// histograms their Sum (every metric here is nanoseconds).
func phaseTotal(by map[string]MetricValue, names ...string) time.Duration {
	var total int64
	for _, n := range names {
		m := by[n]
		if m.Kind == "histogram" {
			total += m.Sum
		} else {
			total += m.Value
		}
	}
	return time.Duration(total)
}

// PhaseTree builds the pipeline's phase attribution from a registry snapshot:
//
//	search            search.wall_ns
//	├─ exec           concolic.exec.ns
//	└─ fol            fol.prove.ns
//	   └─ smt         smt.solve.ns
//	      ├─ sat      smt.sat.ns
//	      ├─ simplex  smt.lia.ns   (LIA: branch-and-bound over simplex)
//	      └─ euf      smt.euf.ns
//
// Every solver check, one-shot or on the warm refuter, is recorded once in
// smt.solve.ns, so the smt row is that histogram's sum and nothing else.
// Likewise a refutation (fol.refute.ns) runs inside its proof's timed span,
// so the fol row is fol.prove.ns alone.
// Returns nil when the registry holds no search time at all (nothing ran, or
// observability was off).
func PhaseTree(r *Registry) *PhaseNode {
	if r == nil {
		return nil
	}
	by := map[string]MetricValue{}
	for _, m := range r.Snapshot() {
		by[m.Name] = m
	}
	smtNode := &PhaseNode{Name: "smt", Total: phaseTotal(by, "smt.solve.ns"),
		Children: []*PhaseNode{
			{Name: "sat", Total: phaseTotal(by, "smt.sat.ns")},
			{Name: "simplex", Total: phaseTotal(by, "smt.lia.ns")},
			{Name: "euf", Total: phaseTotal(by, "smt.euf.ns")},
		}}
	folNode := &PhaseNode{Name: "fol", Total: phaseTotal(by, "fol.prove.ns"),
		Children: []*PhaseNode{smtNode}}
	root := &PhaseNode{Name: "search", Total: phaseTotal(by, "search.wall_ns"),
		Children: []*PhaseNode{
			{Name: "exec", Total: phaseTotal(by, "concolic.exec.ns")},
			folNode,
		}}
	if root.Total == 0 && folNode.Total == 0 && smtNode.Total == 0 {
		return nil
	}
	// The satisfiability path (non-higher-order modes) reaches smt without
	// going through fol; keep the tree honest by widening fol to at least
	// its children so Self clamps at 0 instead of hiding solver time.
	if folNode.Total < smtNode.Total {
		folNode.Total = smtNode.Total
	}
	fillSelf(root)
	return root
}

func fillSelf(n *PhaseNode) {
	var child time.Duration
	for _, c := range n.Children {
		fillSelf(c)
		child += c.Total
	}
	n.Self = n.Total - child
	if n.Self < 0 {
		n.Self = 0
	}
}

// PhaseTable renders the phase attribution as an aligned table (indented by
// depth, with percent-of-root columns). Returns "" when there is nothing to
// attribute.
func PhaseTable(r *Registry) string {
	root := PhaseTree(r)
	if root == nil {
		return ""
	}
	var b strings.Builder
	b.WriteString("phase                 total        self     % of search\n")
	var walk func(n *PhaseNode, depth int)
	walk = func(n *PhaseNode, depth int) {
		pct := 0.0
		if root.Total > 0 {
			pct = 100 * float64(n.Total) / float64(root.Total)
		}
		fmt.Fprintf(&b, "%-18s %9s   %9s   %6.1f%%\n",
			strings.Repeat("  ", depth)+n.Name,
			formatVal(int64(n.Total), true), formatVal(int64(n.Self), true), pct)
		for _, c := range n.Children {
			walk(c, depth+1)
		}
	}
	walk(root, 0)
	return strings.TrimRight(b.String(), "\n")
}
