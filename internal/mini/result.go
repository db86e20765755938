package mini

// StopKind says how an execution ended.
type StopKind int

const (
	// StopReturn: main returned normally.
	StopReturn StopKind = iota
	// StopError: an error("...") site was reached — a bug was found.
	StopError
	// StopRuntime: a runtime fault (division by zero, index out of bounds,
	// step or recursion budget exceeded).
	StopRuntime
)

func (k StopKind) String() string {
	switch k {
	case StopReturn:
		return "return"
	case StopError:
		return "error"
	case StopRuntime:
		return "runtime-fault"
	default:
		return "?"
	}
}

// BranchEvent records one dynamic evaluation of a branch point.
type BranchEvent struct {
	ID    int  // static branch point (If/While BranchID)
	Taken bool // condition value
}

// Result is the outcome of one concrete execution.
type Result struct {
	Kind       StopKind
	Return     int64
	ErrorSite  int // valid when Kind == StopError
	ErrorMsg   string
	RuntimeMsg string
	Branches   []BranchEvent // the executed control path
	Steps      int
}

// Path returns the branch trace as a compact string, for comparing paths.
func (r *Result) Path() string {
	buf := make([]byte, len(r.Branches))
	for i, b := range r.Branches {
		if b.Taken {
			buf[i] = '1'
		} else {
			buf[i] = '0'
		}
	}
	return string(buf)
}

// DefaultMaxSteps and DefaultMaxDepth are the execution budgets a zero limit
// stands for, in the VM and in the concolic tree walker alike.
const (
	DefaultMaxSteps = 200000
	DefaultMaxDepth = 256
)

// RunOptions bounds an execution.
type RunOptions struct {
	MaxSteps int // default DefaultMaxSteps
	MaxDepth int // default DefaultMaxDepth
	// OnNativeCall, if set, observes every native (unknown-function) call.
	// This is the hook used to learn input–output samples across runs
	// (Section 7: observing keyword hashes from well-formed seed inputs).
	OnNativeCall func(name string, args []int64, result int64)
	// Funcs supplies the function-valued inputs, aligned with the program's
	// FuncShape. Missing or nil entries run as the default function (the
	// empty table: every application returns 0).
	Funcs []*FuncValue
}

type runtimeFault struct{ msg string }

func (f runtimeFault) Error() string { return f.msg }

type errorReached struct {
	site int
	msg  string
}

func (errorReached) Error() string { return "error site reached" }
