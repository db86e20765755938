package mini

import (
	"fmt"

	"hotg/internal/faults"
)

// VM executes compiled bytecode. It is the concrete evaluator of mini and the
// independent check on the concolic tree walker (internal/concolic): results
// are identical except for Steps (instructions vs AST visits) and the wording
// of fault messages (no source positions in bytecode).

type vm struct {
	c     *Compiled
	opts  RunOptions
	res   *Result
	steps int
	depth int
	// wrongMod is the injected silent-miscompilation fault
	// (faults.Plan.VMWrongMod): OpMod evaluates floored instead of
	// truncated modulo. Sampled once per RunVM call so the instruction
	// loop stays probe-free.
	wrongMod bool
}

// newVM resolves the run's budgets and samples the injected fault.
func newVM(c *Compiled, opts RunOptions) *vm {
	if opts.MaxSteps <= 0 {
		opts.MaxSteps = DefaultMaxSteps
	}
	if opts.MaxDepth <= 0 {
		opts.MaxDepth = DefaultMaxDepth
	}
	return &vm{c: c, opts: opts, res: &Result{}, wrongMod: faults.Active().FireVMWrongMod()}
}

// finish records how the run ended.
func (m *vm) finish(ret int64, err error) *Result {
	m.res.Steps = m.steps
	switch e := err.(type) {
	case nil:
		m.res.Kind = StopReturn
		m.res.Return = ret
	case errorReached:
		m.res.Kind = StopError
		m.res.ErrorSite = e.site
		m.res.ErrorMsg = e.msg
	case runtimeFault:
		m.res.Kind = StopRuntime
		m.res.RuntimeMsg = e.msg
	default:
		panic(err)
	}
	return m.res
}

// RunVM executes the compiled program's main function on the flattened input
// vector (see Program.Shape). The input length must match the shape.
func RunVM(c *Compiled, input []int64, opts RunOptions) *Result {
	m := newVM(c, opts)

	main := c.prog.Main()
	fnIx := c.byName["main"]
	ints := make([]int64, c.fns[fnIx].numInts)
	arrs := make([][]int64, c.fns[fnIx].numArrs)
	fns := make([]*FuncValue, c.fns[fnIx].numFns)

	// Distribute the flattened input over parameter slots. Int parameters
	// occupy the first int slots, array parameters the first array slots, and
	// function parameters the fn slots, in declaration order (mirroring the
	// compiler's declare order).
	k, intSlot, arrSlot, fnSlot := 0, 0, 0, 0
	for _, prm := range main.Params {
		switch prm.Type.Kind {
		case TArray:
			a := make([]int64, prm.Type.Len)
			copy(a, input[k:k+prm.Type.Len])
			k += prm.Type.Len
			arrs[arrSlot] = a
			arrSlot++
		case TFunc:
			if fnSlot < len(opts.Funcs) {
				fns[fnSlot] = opts.Funcs[fnSlot]
			}
			fnSlot++
		default:
			ints[intSlot] = input[k]
			intSlot++
			k++
		}
	}
	if k != len(input) {
		panic(fmt.Sprintf("mini.RunVM: input length %d does not match shape %d", len(input), k))
	}
	return m.finish(m.exec(fnIx, ints, arrs, fns))
}

// exec runs one function frame to completion.
func (m *vm) exec(fnIx int, ints []int64, arrs [][]int64, fns []*FuncValue) (int64, error) {
	fn := &m.c.fns[fnIx]
	code := fn.code
	stack := make([]int64, 0, 16)
	pc := 0

	pop := func() int64 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		return v
	}

	for pc < len(code) {
		m.steps++
		if m.steps > m.opts.MaxSteps {
			return 0, runtimeFault{"step budget exceeded (possible non-termination)"}
		}
		in := code[pc]
		pc++
		switch in.Op {
		case OpPush:
			stack = append(stack, in.A)
		case OpLoad:
			stack = append(stack, ints[in.A])
		case OpStore:
			ints[in.A] = pop()
		case OpPop:
			stack = stack[:len(stack)-1]
		case OpALoad:
			idx := pop()
			a := arrs[in.A]
			if idx < 0 || idx >= int64(len(a)) {
				return 0, runtimeFault{fmt.Sprintf("vm: index %d out of bounds [0,%d)", idx, len(a))}
			}
			stack = append(stack, a[idx])
		case OpAStore:
			val := pop()
			idx := pop()
			a := arrs[in.A]
			if idx < 0 || idx >= int64(len(a)) {
				return 0, runtimeFault{fmt.Sprintf("vm: index %d out of bounds [0,%d)", idx, len(a))}
			}
			a[idx] = val
		case OpNewArr:
			arrs[in.A] = make([]int64, in.B)

		case OpAdd:
			r := pop()
			stack[len(stack)-1] += r
		case OpSub:
			r := pop()
			stack[len(stack)-1] -= r
		case OpMul:
			r := pop()
			stack[len(stack)-1] *= r
		case OpDiv:
			r := pop()
			if r == 0 {
				return 0, runtimeFault{"vm: division by zero"}
			}
			stack[len(stack)-1] /= r
		case OpMod:
			r := pop()
			if r == 0 {
				return 0, runtimeFault{"vm: modulo by zero"}
			}
			v := stack[len(stack)-1] % r
			if m.wrongMod && v != 0 && (v < 0) != (r < 0) {
				v += r // floored modulo: sign follows the divisor
			}
			stack[len(stack)-1] = v
		case OpNeg:
			stack[len(stack)-1] = -stack[len(stack)-1]

		case OpEq, OpNe, OpLt, OpLe, OpGt, OpGe:
			r := pop()
			l := stack[len(stack)-1]
			var b bool
			switch in.Op {
			case OpEq:
				b = l == r
			case OpNe:
				b = l != r
			case OpLt:
				b = l < r
			case OpLe:
				b = l <= r
			case OpGt:
				b = l > r
			case OpGe:
				b = l >= r
			}
			if b {
				stack[len(stack)-1] = 1
			} else {
				stack[len(stack)-1] = 0
			}
		case OpNot:
			if stack[len(stack)-1] == 0 {
				stack[len(stack)-1] = 1
			} else {
				stack[len(stack)-1] = 0
			}

		case OpJmp:
			pc = int(in.A)
		case OpBrF:
			c := pop()
			m.res.Branches = append(m.res.Branches, BranchEvent{ID: int(in.B), Taken: c != 0})
			if c == 0 {
				pc = int(in.A)
			}
		case OpAnd:
			c := pop()
			m.res.Branches = append(m.res.Branches, BranchEvent{ID: int(in.B), Taken: c != 0})
			if c == 0 {
				stack = append(stack, 0)
				pc = int(in.A)
			}
		case OpOr:
			c := pop()
			m.res.Branches = append(m.res.Branches, BranchEvent{ID: int(in.B), Taken: c != 0})
			if c != 0 {
				stack = append(stack, 1)
				pc = int(in.A)
			}

		case OpCallNat:
			nat := m.c.nats[in.A]
			n := int(in.B)
			args := make([]int64, n)
			copy(args, stack[len(stack)-n:])
			stack = stack[:len(stack)-n]
			out := nat.Fn(args)
			if m.opts.OnNativeCall != nil {
				m.opts.OnNativeCall(nat.Name, args, out)
			}
			stack = append(stack, out)

		case OpCallPar:
			n := int(in.B)
			args := make([]int64, n)
			copy(args, stack[len(stack)-n:])
			stack = stack[:len(stack)-n]
			stack = append(stack, fns[in.A].Eval(args))

		case OpCall:
			m.depth++
			if m.depth > m.opts.MaxDepth {
				return 0, runtimeFault{"vm: recursion budget exceeded"}
			}
			callee := &m.c.fns[in.A]
			site := m.c.sites[in.B]
			cints := make([]int64, callee.numInts)
			carrs := make([][]int64, callee.numArrs)
			// Int args are on the stack in evaluation order; pop them into
			// the parameter slots in reverse.
			for i := site.intArgs - 1; i >= 0; i-- {
				cints[callee.intParam[i]] = pop()
			}
			for i, from := range site.arrFrom {
				carrs[i] = arrs[from]
			}
			cfns := make([]*FuncValue, callee.numFns)
			for i, from := range site.fnFrom {
				cfns[i] = fns[from]
			}
			ret, err := m.exec(int(in.A), cints, carrs, cfns)
			m.depth--
			if err != nil {
				return 0, err
			}
			stack = append(stack, ret)

		case OpRet:
			return pop(), nil
		case OpRetVoid:
			return 0, nil
		case OpError:
			return 0, errorReached{site: int(in.A), msg: m.c.prog.ErrorSites[in.A]}
		default:
			panic(fmt.Sprintf("mini: vm: bad opcode %v", in.Op))
		}
	}
	return 0, nil
}

// Disasm renders the compiled form of one function, for debugging and tests.
func (c *Compiled) Disasm(fn string) string {
	ix, ok := c.byName[fn]
	if !ok {
		return "<no function " + fn + ">"
	}
	out := ""
	for i, in := range c.fns[ix].code {
		out += fmt.Sprintf("%4d  %-8s %d %d\n", i, in.Op, in.A, in.B)
	}
	return out
}

// RunFuncVM executes a single function of the compiled program on int
// arguments (the function must take only int parameters). The Result's branch
// trace covers only the callee's execution. It is the probe pass of the
// summary machinery: a cheap concrete run that determines the
// intraprocedural path before any symbolic work is spent.
func RunFuncVM(c *Compiled, name string, args []int64, opts RunOptions) *Result {
	ix, ok := c.byName[name]
	if !ok {
		panic("mini.RunFuncVM: no function " + name)
	}
	fn := &c.fns[ix]
	if len(args) != len(fn.intParam) || fn.arrParam != 0 || fn.numFns != 0 {
		panic("mini.RunFuncVM: " + name + " signature mismatch (int params only)")
	}
	m := newVM(c, opts)
	ints := make([]int64, fn.numInts)
	for i, slot := range fn.intParam {
		ints[slot] = args[i]
	}
	arrs := make([][]int64, fn.numArrs)
	return m.finish(m.exec(ix, ints, arrs, nil))
}
