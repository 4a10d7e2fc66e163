package interp

import (
	"math/bits"
	"strconv"

	"github.com/omp4go/omp4go/internal/minipy"
)

// Sig is the positional arity of a Go-implemented callable, held as
// the set of argument counts it rejects: bit n set means a call with n
// arguments raises the arity TypeError, and bit 63 stands for every
// count from 63 up. The zero Sig rejects nothing, so a Builtin that
// declares no signature is unchecked. CallKw tests it with one shift
// and one compare, which keeps the check off the per-chunk cost of the
// bridge calls.
type Sig uint64

// Args is the signature of a callable taking from min to max
// positional arguments; max < 0 leaves the count unbounded.
func Args(min, max int) Sig { return argsBy(min, max, 1) }

// argsBy is Args in steps of step arguments past min. Bit 63 can only
// say "all counts from 63 up", so only an unbounded signature with
// step 1 accepts 63 or more.
func argsBy(min, max, step int) Sig {
	s := Sig(1) << 63
	if max < 0 && step == 1 {
		s = 0
	}
	for n := 0; n < 63; n++ {
		if n < min || max >= 0 && n > max || (n-min)%step != 0 {
			s |= 1 << n
		}
	}
	return s
}

func (s Sig) rejects(n int) bool { return s>>uint(min(n, 63))&1 != 0 }

// arityError is the one TypeError for a call of name with n positional
// arguments that s rejects, in the wording of CPython's C builtins.
func (s Sig) arityError(name string, n int, pos minipy.Position) *PyError {
	ok := ^uint64(s)
	lo, hi := bits.TrailingZeros64(ok), 63-bits.LeadingZeros64(ok)
	next := bits.TrailingZeros64(ok &^ (1 << lo))
	var takes string
	switch {
	case hi == 63:
		takes = "at least " + plural(lo)
	case lo == hi && lo == 0:
		takes = "no arguments"
	case lo == hi:
		takes = "exactly " + plural(lo)
	case next != lo+1:
		takes = "arguments in groups of " + strconv.Itoa(next-lo)
	case lo == 0:
		takes = "at most " + plural(hi)
	default:
		takes = "from " + strconv.Itoa(lo) + " to " + plural(hi)
	}
	return typeErrorf(pos, "%s() takes %s (%d given)", name, takes, n)
}

func plural(n int) string {
	if n == 1 {
		return "1 argument"
	}
	return strconv.Itoa(n) + " arguments"
}
