package interp

import (
	"math"

	"github.com/omp4go/omp4go/internal/minipy"
)

// This file is the one definition of the numeric operators that can
// fail — Python's // % << >> on ints and / // % on floats — and of what
// a failing typed operation raises. The tree-walker (intOp, floatOp),
// the typed closures of the compiler and its loop IR all compute these
// through the functions below (compile/ir.go puts them in its operator
// tables).

// Fault names what a failing typed operation raises.
type Fault uint8

const (
	FaultNone Fault = iota
	FaultDivF
	FaultFloorDivF
	FaultModF
	FaultDivI
	FaultShift
	FaultDomain
	FaultStep
	FaultLoad
	FaultStore
)

var faultErrs = [...][2]string{
	FaultDivF:      {"ZeroDivisionError", "float division by zero"},
	FaultFloorDivF: {"ZeroDivisionError", "float floor division by zero"},
	FaultModF:      {"ZeroDivisionError", "float modulo"},
	FaultDivI:      {"ZeroDivisionError", "integer division or modulo by zero"},
	FaultShift:     {"ValueError", "negative shift count"},
	FaultDomain:    {"ValueError", "math domain error"},
	FaultStep:      {"ValueError", "range() arg 3 must not be zero"},
	FaultLoad:      {"IndexError", "list index out of range"},
	FaultStore:     {"IndexError", "list assignment index out of range"},
}

// Err is the exception the fault raises at pos.
func (ft Fault) Err(pos minipy.Position) error {
	return &PyError{Type: faultErrs[ft][0], Msg: faultErrs[ft][1], Pos: pos}
}

// FloorDivI and ModI (and their float counterparts) follow the sign of
// the divisor.
func FloorDivI(l, r int64) (int64, Fault) {
	if r == 0 {
		return 0, FaultDivI
	}
	q := l / r
	if (l%r != 0) && ((l < 0) != (r < 0)) {
		q--
	}
	return q, FaultNone
}

func ModI(l, r int64) (int64, Fault) {
	if r == 0 {
		return 0, FaultDivI
	}
	m := l % r
	if m != 0 && ((l < 0) != (r < 0)) {
		m += r
	}
	return m, FaultNone
}

func ShlI(l, r int64) (int64, Fault) {
	if r < 0 {
		return 0, FaultShift
	}
	return l << uint(r), FaultNone
}

func ShrI(l, r int64) (int64, Fault) {
	if r < 0 {
		return 0, FaultShift
	}
	return l >> uint(r), FaultNone
}

func DivF(l, r float64) (float64, Fault) {
	if r == 0 {
		return 0, FaultDivF
	}
	return l / r, FaultNone
}

func FloorDivF(l, r float64) (float64, Fault) {
	if r == 0 {
		return 0, FaultFloorDivF
	}
	return math.Floor(l / r), FaultNone
}

func ModF(l, r float64) (float64, Fault) {
	if r == 0 {
		return 0, FaultModF
	}
	m := math.Mod(l, r)
	if m != 0 && ((m < 0) != (r < 0)) {
		m += r
	}
	return m, FaultNone
}
