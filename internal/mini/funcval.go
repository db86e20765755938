package mini

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// FuncRow is one decision-table entry of a FuncValue: the function maps Args
// (exactly Arity of them) to Out.
type FuncRow struct {
	Args []int64
	Out  int64
}

// FuncValue is a concrete function input: a finite decision table plus a
// default clause. It is the canonical function representation of higher-order
// test generation — every synthesized callback is "the observed and solved
// samples, and Default everywhere else" — and is what the VM and the
// concolic tree walker apply when the program calls through a function-typed
// parameter.
//
// A nil *FuncValue behaves as the empty table with default 0 (the function
// every search seed and every concretizing baseline runs under).
//
// Canonical form: rows sorted lexicographically by Args with no duplicate
// argument tuples. Canon establishes it; String assumes it, so two FuncValues
// render identically iff they are the same function table.
type FuncValue struct {
	Arity   int
	Rows    []FuncRow
	Default int64
}

// Eval applies the function to args. Nil receivers evaluate as the empty
// table: every application returns 0.
func (fv *FuncValue) Eval(args []int64) int64 {
	if fv == nil {
		return 0
	}
	if len(args) != fv.Arity {
		panic(fmt.Sprintf("mini: FuncValue arity %d applied to %d args", fv.Arity, len(args)))
	}
	for _, row := range fv.Rows {
		if argsEqual(row.Args, args) {
			return row.Out
		}
	}
	return fv.Default
}

func argsEqual(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func argsLess(a, b []int64) bool {
	for i := range a {
		if i >= len(b) {
			return false
		}
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

// Canon sorts the rows lexicographically by argument tuple and drops
// duplicate tuples (keeping the first occurrence), returning the receiver.
// Conflicting duplicates (same args, different out) panic: a decision table
// must be a function.
func (fv *FuncValue) Canon() *FuncValue {
	if fv == nil {
		return nil
	}
	sort.SliceStable(fv.Rows, func(i, j int) bool {
		return argsLess(fv.Rows[i].Args, fv.Rows[j].Args)
	})
	out := fv.Rows[:0]
	for _, row := range fv.Rows {
		if n := len(out); n > 0 && argsEqual(out[n-1].Args, row.Args) {
			if out[n-1].Out != row.Out {
				panic(fmt.Sprintf("mini: FuncValue conflict on %v: both %d and %d",
					row.Args, out[n-1].Out, row.Out))
			}
			continue
		}
		out = append(out, row)
	}
	fv.Rows = out
	return fv
}

// String renders the canonical textual form, e.g. fn/2{(1,2)->3, _->0}. The
// arity prefix makes the form self-describing (an empty table still knows its
// signature), and ParseFuncValue inverts it byte-for-byte on canonical
// values. A nil FuncValue renders as the arity-0 empty table's notation would
// be ambiguous, so callers render nil per-parameter via FuncValueString.
func (fv *FuncValue) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "fn/%d{", fv.Arity)
	for _, row := range fv.Rows {
		b.WriteByte('(')
		for i, a := range row.Args {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(strconv.FormatInt(a, 10))
		}
		b.WriteString(")->")
		b.WriteString(strconv.FormatInt(row.Out, 10))
		b.WriteString(", ")
	}
	b.WriteString("_->")
	b.WriteString(strconv.FormatInt(fv.Default, 10))
	b.WriteByte('}')
	return b.String()
}

// FuncValueString renders fv, treating nil as the empty table of the given
// arity with default 0 — the function every baseline and every seed runs
// under.
func FuncValueString(fv *FuncValue, arity int) string {
	if fv == nil {
		fv = &FuncValue{Arity: arity}
	}
	return fv.String()
}

// ParseFuncValue parses the canonical textual form produced by String. The
// result is canonicalized, so String(ParseFuncValue(s)) == s holds exactly
// for canonical inputs (the fuzz round-trip property).
func ParseFuncValue(s string) (*FuncValue, error) {
	rest, ok := strings.CutPrefix(s, "fn/")
	if !ok {
		return nil, fmt.Errorf("mini: function value must start with fn/: %q", s)
	}
	brace := strings.IndexByte(rest, '{')
	if brace < 0 || !strings.HasSuffix(rest, "}") {
		return nil, fmt.Errorf("mini: malformed function value %q", s)
	}
	arity, err := strconv.Atoi(rest[:brace])
	if err != nil || arity < 0 {
		return nil, fmt.Errorf("mini: bad function arity in %q", s)
	}
	fv := &FuncValue{Arity: arity}
	body := rest[brace+1 : len(rest)-1]
	for body != "" {
		entry := body
		if cut := strings.Index(body, ", "); cut >= 0 {
			entry, body = body[:cut], body[cut+2:]
		} else {
			body = ""
		}
		if rest, ok := strings.CutPrefix(entry, "_->"); ok {
			if body != "" {
				return nil, fmt.Errorf("mini: default clause must come last in %q", s)
			}
			d, err := strconv.ParseInt(rest, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("mini: bad default in %q", s)
			}
			fv.Default = d
			// Conflicting duplicate tuples make the text not denote a
			// function; reject them here rather than letting Canon panic on
			// untrusted input.
			for i, row := range fv.Rows {
				for _, prev := range fv.Rows[:i] {
					if argsEqual(prev.Args, row.Args) && prev.Out != row.Out {
						return nil, fmt.Errorf("mini: conflicting rows for %v in %q", row.Args, s)
					}
				}
			}
			return fv.Canon(), nil
		}
		args, out, err := parseFuncRow(entry, arity)
		if err != nil {
			return nil, fmt.Errorf("mini: %v in %q", err, s)
		}
		fv.Rows = append(fv.Rows, FuncRow{Args: args, Out: out})
	}
	return nil, fmt.Errorf("mini: function value %q has no default clause", s)
}

func parseFuncRow(entry string, arity int) ([]int64, int64, error) {
	if !strings.HasPrefix(entry, "(") {
		return nil, 0, fmt.Errorf("bad row %q", entry)
	}
	close := strings.Index(entry, ")->")
	if close < 0 {
		return nil, 0, fmt.Errorf("bad row %q", entry)
	}
	var args []int64
	if argstr := entry[1:close]; argstr != "" {
		for _, part := range strings.Split(argstr, ",") {
			v, err := strconv.ParseInt(part, 10, 64)
			if err != nil {
				return nil, 0, fmt.Errorf("bad argument %q", part)
			}
			args = append(args, v)
		}
	}
	if len(args) != arity {
		return nil, 0, fmt.Errorf("row %q has %d args, want %d", entry, len(args), arity)
	}
	out, err := strconv.ParseInt(entry[close+3:], 10, 64)
	if err != nil {
		return nil, 0, fmt.Errorf("bad output in row %q", entry)
	}
	return args, out, nil
}

// Clone returns an independent copy of the function value (nil-safe).
func (fv *FuncValue) Clone() *FuncValue {
	if fv == nil {
		return nil
	}
	out := &FuncValue{Arity: fv.Arity, Default: fv.Default, Rows: make([]FuncRow, len(fv.Rows))}
	for i, row := range fv.Rows {
		out.Rows[i] = FuncRow{Args: append([]int64(nil), row.Args...), Out: row.Out}
	}
	return out
}

// FuncValuesKey renders a slice of function inputs (aligned with FuncShape)
// in the canonical form, for dedup keys and run records. Nil entries render
// as empty tables of the matching arity.
func FuncValuesKey(funcs []*FuncValue, shape []FuncParam) string {
	if len(shape) == 0 {
		return ""
	}
	parts := make([]string, len(shape))
	for i, fp := range shape {
		var fv *FuncValue
		if i < len(funcs) {
			fv = funcs[i]
		}
		parts[i] = FuncValueString(fv, fp.Arity)
	}
	return strings.Join(parts, "; ")
}
