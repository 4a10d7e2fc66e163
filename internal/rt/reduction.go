package rt

import (
	"fmt"

	"github.com/omp4go/omp4go/internal/directive"
)

// DeclaredReduction is a user-defined reduction registered through
// the declare reduction directive: a combiner over (out, in) and an
// identity-producing initializer. They are the language's callables,
// opaque to the runtime, which keeps them and never calls them.
type DeclaredReduction struct {
	Ident    string
	Combine  any
	Identity any // nil: none declared
}

// RegisterReduction installs a user-declared reduction. Redeclaring
// an identifier is an error, as in OpenMP.
func (r *Runtime) RegisterReduction(d *DeclaredReduction) error {
	if d == nil || d.Ident == "" || d.Combine == nil {
		return &MisuseError{Construct: "declare reduction", Msg: "incomplete declaration"}
	}
	r.declRedMu.Lock()
	defer r.declRedMu.Unlock()
	if _, dup := r.declRed[d.Ident]; dup {
		return &MisuseError{Construct: "declare reduction",
			Msg: fmt.Sprintf("reduction identifier %q redeclared", d.Ident)}
	}
	r.declRed[d.Ident] = d
	return nil
}

// LookupReduction resolves a reduction identifier previously
// registered with RegisterReduction.
func (r *Runtime) LookupReduction(ident string) (*DeclaredReduction, bool) {
	r.declRedMu.Lock()
	d, ok := r.declRed[ident]
	r.declRedMu.Unlock()
	return d, ok
}

// ReduceInt combines two int64 partial results with a built-in
// reduction operator.
func ReduceInt(op string, a, b int64) (int64, error) {
	switch op {
	case "+":
		return a + b, nil
	case "*":
		return a * b, nil
	case "-":
		// OpenMP defines the minus reduction to combine with +.
		return a + b, nil
	case "&":
		return a & b, nil
	case "|":
		return a | b, nil
	case "^":
		return a ^ b, nil
	case "&&":
		if a != 0 && b != 0 {
			return 1, nil
		}
		return 0, nil
	case "||":
		if a != 0 || b != 0 {
			return 1, nil
		}
		return 0, nil
	case "min":
		return min64(a, b), nil
	case "max":
		if a > b {
			return a, nil
		}
		return b, nil
	}
	return 0, &MisuseError{Construct: "reduction", Msg: "unknown operator " + op}
}

// ReduceFloat combines two float64 partial results with a built-in
// reduction operator.
func ReduceFloat(op string, a, b float64) (float64, error) {
	switch op {
	case "+", "-":
		return a + b, nil
	case "*":
		return a * b, nil
	case "min":
		if a < b {
			return a, nil
		}
		return b, nil
	case "max":
		if a > b {
			return a, nil
		}
		return b, nil
	case "&&":
		if a != 0 && b != 0 {
			return 1, nil
		}
		return 0, nil
	case "||":
		if a != 0 || b != 0 {
			return 1, nil
		}
		return 0, nil
	}
	return 0, &MisuseError{Construct: "reduction", Msg: "operator " + op + " is not valid for floats"}
}

// IntIdentity returns the identity element for a built-in reduction
// operator over integers.
func IntIdentity(op string) (int64, error) {
	switch op {
	case "+", "-", "|", "^", "||":
		return 0, nil
	case "*", "&&":
		return 1, nil
	case "&":
		return -1, nil
	case "min":
		return int64(^uint64(0) >> 1), nil // MaxInt64
	case "max":
		return -int64(^uint64(0)>>1) - 1, nil // MinInt64
	}
	return 0, &MisuseError{Construct: "reduction", Msg: "unknown operator " + op}
}

// FloatIdentity returns the identity element for a built-in reduction
// operator over floats.
func FloatIdentity(op string) (float64, error) {
	switch op {
	case "+", "-", "||":
		return 0, nil
	case "*", "&&":
		return 1, nil
	case "min":
		return maxFloat, nil
	case "max":
		return -maxFloat, nil
	}
	return 0, &MisuseError{Construct: "reduction", Msg: "operator " + op + " is not valid for floats"}
}

const maxFloat = 1.797693134862315708145274237317043567981e+308

var _ = directive.ScheduleStatic // anchor the directive dependency for Schedule
