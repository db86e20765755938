package mini

// Bytecode optimizer: a peephole pass (constant folding into PUSH chains),
// jump threading, and dead-NOP compaction. Branch instructions are *never*
// folded away even on constant conditions, because every BrF/And/Or records
// an observable branch event that the concolic tree walker also records;
// the optimized code must stay trace-equivalent (property-tested against
// the tree walker).

// OpNop is a placeholder emitted by the optimizer and removed by compaction.
const OpNop Opcode = 255

// Optimize rewrites every function's code in place and returns the receiver.
func (c *Compiled) Optimize() *Compiled {
	for i := range c.fns {
		c.fns[i].code = optimizeCode(c.fns[i].code)
	}
	return c
}

// InstrCount returns the total instruction count across functions (used by
// tests and benchmarks to quantify optimization).
func (c *Compiled) InstrCount() int {
	n := 0
	for i := range c.fns {
		n += len(c.fns[i].code)
	}
	return n
}

func isJump(op Opcode) bool {
	return op == OpJmp || op == OpBrF || op == OpAnd || op == OpOr
}

func optimizeCode(code []Instr) []Instr {
	code = append([]Instr(nil), code...)
	for {
		changed := foldConstants(code)
		changed = threadJumps(code) || changed
		// Compact every round so cascading folds ((2+3)*4 → 5*4 → 20) see
		// adjacent instructions again.
		code = compact(code)
		if !changed {
			return code
		}
	}
}

// jumpTargets marks instructions that are entered by a jump; peephole
// windows must not span them.
func jumpTargets(code []Instr) []bool {
	t := make([]bool, len(code)+1)
	for _, in := range code {
		if isJump(in.Op) {
			t[in.A] = true
		}
	}
	return t
}

// foldConstants rewrites PUSH a; PUSH b; binop → PUSH (a∘b) and
// PUSH a; unop → PUSH (∘a), leaving NOPs for compaction. Division and
// modulo by a constant zero are left alone: they must fault at run time.
func foldConstants(code []Instr) bool {
	target := jumpTargets(code)
	changed := false
	for i := 0; i+1 < len(code); i++ {
		if code[i].Op != OpPush {
			continue
		}
		// Unary over one constant.
		if !target[i+1] {
			switch code[i+1].Op {
			case OpNeg:
				code[i] = Instr{Op: OpPush, A: -code[i].A}
				code[i+1] = Instr{Op: OpNop}
				changed = true
				continue
			case OpNot:
				v := int64(0)
				if code[i].A == 0 {
					v = 1
				}
				code[i] = Instr{Op: OpPush, A: v}
				code[i+1] = Instr{Op: OpNop}
				changed = true
				continue
			case OpPop:
				code[i] = Instr{Op: OpNop}
				code[i+1] = Instr{Op: OpNop}
				changed = true
				continue
			}
		}
		// Binary over two constants.
		if i+2 >= len(code) || code[i+1].Op != OpPush || target[i+1] || target[i+2] {
			continue
		}
		a, b := code[i].A, code[i+1].A
		var v int64
		ok := true
		switch code[i+2].Op {
		case OpAdd:
			v = a + b
		case OpSub:
			v = a - b
		case OpMul:
			v = a * b
		case OpDiv:
			if b == 0 {
				ok = false // must fault at run time
			} else {
				v = a / b
			}
		case OpMod:
			if b == 0 {
				ok = false
			} else {
				v = a % b
			}
		case OpEq:
			v = b2i(a == b)
		case OpNe:
			v = b2i(a != b)
		case OpLt:
			v = b2i(a < b)
		case OpLe:
			v = b2i(a <= b)
		case OpGt:
			v = b2i(a > b)
		case OpGe:
			v = b2i(a >= b)
		default:
			ok = false
		}
		if !ok {
			continue
		}
		code[i] = Instr{Op: OpPush, A: v}
		code[i+1] = Instr{Op: OpNop}
		code[i+2] = Instr{Op: OpNop}
		changed = true
	}
	return changed
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// threadJumps redirects jumps whose target is an unconditional jump (or a
// run of NOPs ending in one) to the final destination.
func threadJumps(code []Instr) bool {
	changed := false
	final := func(t int64) int64 {
		for hops := 0; hops < len(code); hops++ {
			u := int(t)
			for u < len(code) && code[u].Op == OpNop {
				u++
			}
			if u < len(code) && code[u].Op == OpJmp && code[u].A != t {
				t = code[u].A
				continue
			}
			return int64(u)
		}
		return t
	}
	for i := range code {
		if isJump(code[i].Op) {
			if nt := final(code[i].A); nt != code[i].A {
				code[i].A = nt
				changed = true
			}
		}
	}
	return changed
}

// compact removes NOPs and remaps jump targets.
func compact(code []Instr) []Instr {
	newIdx := make([]int64, len(code)+1)
	n := int64(0)
	for i, in := range code {
		newIdx[i] = n
		if in.Op != OpNop {
			n++
		}
	}
	newIdx[len(code)] = n
	out := make([]Instr, 0, n)
	for _, in := range code {
		if in.Op == OpNop {
			continue
		}
		if isJump(in.Op) {
			in.A = newIdx[in.A]
		}
		out = append(out, in)
	}
	return out
}
