package mini

import (
	"fmt"
	"math/rand"
	"strings"
)

// GenConfig tunes random program generation.
type GenConfig struct {
	// NumInputs is the number of int parameters of main (default 3).
	NumInputs int
	// MaxStmts bounds statements per block (default 5).
	MaxStmts int
	// MaxDepth bounds statement nesting (default 3).
	MaxDepth int
	// Natives lists native function names (all arity 1) the generator may
	// call; calls are the injected sources of imprecision.
	Natives []string
	// ErrorProb is the per-block probability of an error site (default 0.2).
	ErrorProb float64
	// NumHelpers adds that many two-argument int helper functions which the
	// expression generator may call (exercising interprocedural paths and
	// the summary machinery).
	NumHelpers int
	// FuncParams adds that many fn(int) int parameters to main (named f0,
	// f1, ...); the expression generator calls through them, exercising the
	// callback machinery end to end.
	FuncParams int
}

func (c *GenConfig) defaults() {
	if c.NumInputs == 0 {
		c.NumInputs = 3
	}
	if c.MaxStmts == 0 {
		c.MaxStmts = 5
	}
	if c.MaxDepth == 0 {
		c.MaxDepth = 3
	}
	if c.ErrorProb == 0 {
		c.ErrorProb = 0.2
	}
}

// GenProgram generates the source text of a random, always-terminating mini
// program whose main takes cfg.NumInputs int parameters. The generated
// programs exercise linear arithmetic, nonlinear products, division and
// modulo by constants, native calls, loops with bounded trip counts, nested
// conditionals with &&/||, and error sites. They are used by property tests
// (VM/engine semantic agreement; Theorems 2–4) and by the ablation
// benchmarks.
func GenProgram(r *rand.Rand, cfg GenConfig) string {
	cfg.defaults()
	g := &progGen{r: r, cfg: cfg}
	var b strings.Builder
	for h := 0; h < cfg.NumHelpers; h++ {
		g.helper(&b, h)
	}
	b.WriteString("fn main(")
	for i := 0; i < cfg.NumInputs; i++ {
		if i > 0 {
			b.WriteString(", ")
		}
		name := fmt.Sprintf("x%d", i)
		fmt.Fprintf(&b, "%s int", name)
		g.vars = append(g.vars, name)
	}
	for i := 0; i < cfg.FuncParams; i++ {
		if cfg.NumInputs > 0 || i > 0 {
			b.WriteString(", ")
		}
		name := fmt.Sprintf("f%d", i)
		fmt.Fprintf(&b, "%s fn(int) int", name)
		g.funcs = append(g.funcs, name)
	}
	b.WriteString(") {\n")
	g.block(&b, 1, cfg.MaxDepth)
	b.WriteString("}\n")
	return b.String()
}

type progGen struct {
	r       *rand.Rand
	cfg     GenConfig
	vars    []string // in-scope int variables
	funcs   []string // in-scope function-typed parameters (main only)
	next    int      // fresh-name counter
	errs    int
	helpers int // helpers emitted so far (callable by the expression grammar)
}

// helper emits one two-argument int function whose body uses the same
// statement grammar as main (but no error sites and no further nesting).
func (g *progGen) helper(b *strings.Builder, idx int) {
	fmt.Fprintf(b, "fn h%d(p0 int, p1 int) int {\n", idx)
	saved := g.vars
	savedErr := g.cfg.ErrorProb
	savedHelpers := g.helpers
	savedFuncs := g.funcs
	g.vars = []string{"p0", "p1"}
	g.funcs = nil // helpers do not see main's callbacks
	g.cfg.ErrorProb = 0
	g.helpers = idx // a helper may call earlier helpers only (no recursion)
	g.block(b, 1, 1)
	g.indent(b, 1)
	fmt.Fprintf(b, "return %s;\n", g.intExpr(2))
	b.WriteString("}\n")
	g.vars = saved
	g.funcs = savedFuncs
	g.cfg.ErrorProb = savedErr
	g.helpers = savedHelpers
	g.helpers = idx + 1
}

func (g *progGen) indent(b *strings.Builder, depth int) {
	for i := 0; i < depth; i++ {
		b.WriteString("\t")
	}
}

func (g *progGen) block(b *strings.Builder, depth, budget int) {
	n := 1 + g.r.Intn(g.cfg.MaxStmts)
	saved := len(g.vars)
	for i := 0; i < n; i++ {
		g.stmt(b, depth, budget)
	}
	if g.r.Float64() < g.cfg.ErrorProb {
		g.indent(b, depth)
		fmt.Fprintf(b, "error(\"e%d\");\n", g.errs)
		g.errs++
	}
	g.vars = g.vars[:saved]
}

func (g *progGen) stmt(b *strings.Builder, depth, budget int) {
	choice := g.r.Intn(10)
	switch {
	case choice < 3: // var decl
		name := fmt.Sprintf("t%d", g.next)
		g.next++
		g.indent(b, depth)
		fmt.Fprintf(b, "var %s = %s;\n", name, g.intExpr(2))
		g.vars = append(g.vars, name)
	case choice < 5: // assignment
		g.indent(b, depth)
		fmt.Fprintf(b, "%s = %s;\n", g.vars[g.r.Intn(len(g.vars))], g.intExpr(2))
	case choice < 8 && budget > 0: // if
		g.indent(b, depth)
		fmt.Fprintf(b, "if (%s) {\n", g.boolExpr(2))
		g.block(b, depth+1, budget-1)
		g.indent(b, depth)
		if g.r.Intn(2) == 0 {
			b.WriteString("} else {\n")
			g.block(b, depth+1, budget-1)
			g.indent(b, depth)
		}
		b.WriteString("}\n")
	case choice < 9 && budget > 0: // bounded loop
		cnt := fmt.Sprintf("i%d", g.next)
		g.next++
		trip := 1 + g.r.Intn(4)
		g.indent(b, depth)
		fmt.Fprintf(b, "var %s = 0;\n", cnt)
		g.indent(b, depth)
		fmt.Fprintf(b, "while (%s < %d) {\n", cnt, trip)
		// The loop counter is not exposed to the body generator, so the
		// trip count stays bounded.
		g.block(b, depth+1, budget-1)
		g.indent(b, depth+1)
		fmt.Fprintf(b, "%s = %s + 1;\n", cnt, cnt)
		g.indent(b, depth)
		b.WriteString("}\n")
	default: // assignment fallback
		g.indent(b, depth)
		fmt.Fprintf(b, "%s = %s;\n", g.vars[g.r.Intn(len(g.vars))], g.intExpr(2))
	}
}

func (g *progGen) intExpr(depth int) string {
	if depth == 0 || g.r.Intn(3) == 0 {
		if g.r.Intn(2) == 0 && len(g.vars) > 0 {
			return g.vars[g.r.Intn(len(g.vars))]
		}
		return fmt.Sprintf("%d", g.r.Intn(21)-10)
	}
	switch g.r.Intn(9) {
	case 0, 1:
		return fmt.Sprintf("(%s + %s)", g.intExpr(depth-1), g.intExpr(depth-1))
	case 2:
		return fmt.Sprintf("(%s - %s)", g.intExpr(depth-1), g.intExpr(depth-1))
	case 3:
		// Product; may be symbolic×symbolic (an unknown instruction).
		return fmt.Sprintf("(%s * %s)", g.intExpr(depth-1), g.intExpr(depth-1))
	case 4:
		// Division by a nonzero constant (still outside T when the
		// dividend is symbolic).
		return fmt.Sprintf("(%s / %d)", g.intExpr(depth-1), 1+g.r.Intn(5))
	case 5:
		return fmt.Sprintf("(%s %% %d)", g.intExpr(depth-1), 1+g.r.Intn(5))
	case 6:
		if len(g.cfg.Natives) > 0 {
			nat := g.cfg.Natives[g.r.Intn(len(g.cfg.Natives))]
			return fmt.Sprintf("%s(%s)", nat, g.intExpr(depth-1))
		}
		return fmt.Sprintf("(0 - %s)", g.intExpr(depth-1))
	case 7:
		if len(g.funcs) > 0 && (g.helpers == 0 || g.r.Intn(2) == 0) {
			return fmt.Sprintf("%s(%s)", g.funcs[g.r.Intn(len(g.funcs))], g.intExpr(depth-1))
		}
		if g.helpers > 0 {
			return fmt.Sprintf("h%d(%s, %s)", g.r.Intn(g.helpers), g.intExpr(depth-1), g.intExpr(depth-1))
		}
		return fmt.Sprintf("(%s + 1)", g.intExpr(depth-1))
	default:
		return fmt.Sprintf("(0 - %s)", g.intExpr(depth-1))
	}
}

func (g *progGen) boolExpr(depth int) string {
	if depth == 0 || g.r.Intn(2) == 0 {
		ops := []string{"==", "!=", "<", "<=", ">", ">="}
		return fmt.Sprintf("%s %s %s", g.intExpr(1), ops[g.r.Intn(len(ops))], g.intExpr(1))
	}
	switch g.r.Intn(3) {
	case 0:
		return fmt.Sprintf("(%s && %s)", g.boolExpr(depth-1), g.boolExpr(depth-1))
	case 1:
		return fmt.Sprintf("(%s || %s)", g.boolExpr(depth-1), g.boolExpr(depth-1))
	default:
		return fmt.Sprintf("!(%s)", g.boolExpr(depth-1))
	}
}
