package compile

import (
	"math"

	"github.com/omp4go/omp4go/internal/interp"
	"github.com/omp4go/omp4go/internal/minipy"
)

// This file is the typed loop IR of CompiledDT. An annotated loop nest
// (irlower.go) becomes one irProg: linear register code over the
// frame's unboxed files fr.i / fr.f, run by the one switch loop in
// exec. No closure is called and no error returned per node; a failing
// instruction records its Fault and leaves through the frame's fault
// slot, its source position looked up by pc. Lists the nest subscripts
// are hoisted once per execution into the frame's fv/iv views and
// loop-invariant boxed scalars are unboxed into registers. enter checks
// every such assumption before the first instruction runs; a failed
// guard sends that execution to the closure form instead. The loop
// itself cannot invalidate a guard: the IR has no calls and assigns
// only registers and list elements. Another thread can — by rebinding
// a shared name the nest reads — and like a compiler keeping a value
// in a register between flushes, the IR then keeps the value it
// entered with until the loop ends; a nest with a while loop, which
// could wait on such a store forever, is therefore not lowered when it
// reads a shared scalar (irlower.go).

type irOp uint8

const (
	opEnd     irOp = iota // loop finished
	opRetNone             // return None
	opRetI                // return i[a]
	opRetF                // return f[a]
	opJmp                 // pc = c
	opBack                // while back-edge: budget poll, pc = c
	opForPrep             // i[a..a+2] = start, stop, step -> cur, remaining, step; i[b] = cur; empty range: pc = c
	opForNext             // next iteration of the state at i[a..a+2]: i[b] = cur, budget poll, pc = c

	// Jumps to c when the relation holds between a and b. The float
	// set carries negated forms: with NaN, !(a<b) is not a>=b.
	opJLtI
	opJLeI
	opJEqI
	opJNeI
	opJLtF
	opJNLtF
	opJLeF
	opJNLeF
	opJEqF
	opJNeF

	opMovI // a = b
	opMovF
	opItoF // f[a] = float(i[b])
	opFtoI // i[a] = int(f[b]), truncating
	opNegI
	opInvI
	opAbsI
	opNegF
	opAbsF
	opMath1 // f[a] = math1[c](f[b]); NaN from a non-NaN argument faults

	opAddI // a = b op c
	opSubI
	opMulI
	opBinI // i[a] = binI[d](i[b], i[c])
	opAddF
	opSubF
	opMulF
	opDivF
	opBinF    // f[a] = binF[d](f[b], f[c])
	opMulAddF // f[a] = f[d] + f[b]*f[c], rounded twice
	opMulSubF // f[a] = f[d] - f[b]*f[c]

	// List elements through hoisted views. The index is the sum of two
	// registers (the second is a zero constant when there is nothing
	// to add) and wraps when negative.
	opLoadI  // i[a] = iv[b][i[c]+i[d]]
	opLoadF  // f[a] = fv[b][i[c]+i[d]]
	opStoreI // iv[a][i[b]+i[c]] = i[d]
	opStoreF // fv[a][i[b]+i[c]] = f[d]
)

type irInst struct {
	op         irOp
	a, b, c, d int32
}

// numBin is a binary operator beyond + - *: one that can fault or is
// too rare to earn an opcode. The IR reaches it through opBinI/opBinF
// and the typed closures (texpr.go) call the same entry; the operators
// that can fault are the interpreter's own definitions (interp/numops.go).
type numBin[T int64 | float64] struct {
	op string
	fn func(l, r T) (T, interp.Fault)
}

func binIndex[T int64 | float64](tab []numBin[T], op string) int {
	for k := range tab {
		if tab[k].op == op {
			return k
		}
	}
	return -1
}

// minOf / maxOf follow the builtins: of equal values min keeps the
// earlier argument and max takes the later one.
func minOf[T int64 | float64](l, r T) (T, interp.Fault) {
	if r < l {
		return r, interp.FaultNone
	}
	return l, interp.FaultNone
}

func maxOf[T int64 | float64](l, r T) (T, interp.Fault) {
	if r < l {
		return l, interp.FaultNone
	}
	return r, interp.FaultNone
}

// binI are the int operators (int / and ** are not: their results are
// floats, or may be).
var binI = []numBin[int64]{
	{"//", interp.FloorDivI},
	{"%", interp.ModI},
	{"&", func(l, r int64) (int64, interp.Fault) { return l & r, interp.FaultNone }},
	{"|", func(l, r int64) (int64, interp.Fault) { return l | r, interp.FaultNone }},
	{"^", func(l, r int64) (int64, interp.Fault) { return l ^ r, interp.FaultNone }},
	{"<<", interp.ShlI},
	{">>", interp.ShrI},
	{"min", minOf[int64]},
	{"max", maxOf[int64]},
}

// binF are the float operators and math's two-argument functions.
var binF = []numBin[float64]{
	{"/", interp.DivF},
	{"//", interp.FloorDivF},
	{"%", interp.ModF},
	{"**", func(l, r float64) (float64, interp.Fault) { return math.Pow(l, r), interp.FaultNone }},
	{"atan2", func(l, r float64) (float64, interp.Fault) { return math.Atan2(l, r), interp.FaultNone }},
	{"fmod", func(l, r float64) (float64, interp.Fault) { return math.Mod(l, r), interp.FaultNone }},
	{"min", minOf[float64]},
	{"max", maxOf[float64]},
}

// pollStride is how many loop back-edges compiled code runs between
// charges against the execution budget (interp.Thread.Charge): one
// counter decrement per back-edge, the atomic budget load only here.
const pollStride = 1024

// irProg is one lowered loop nest.
type irProg struct {
	code  []irInst
	pos   []minipy.Position // pc -> source position of the instruction
	math1 []func(float64) float64
	state int32 // register base of the top loop's range state; -1 for while
	loops int   // loops lowered into the program, nested ones included

	// Entry guards and the register and view state they establish.
	guards []irGuard
	views  []irView
	invs   []irInv
	consts []irConst
}

// irGuard pins a name to the math module or to a builtin: an inlined
// intrinsic is only valid while the name still means what it did.
type irGuard struct {
	load    exprFn
	id      string // the source name that is loaded
	name    string // the module or builtin it must still be
	builtin bool
}

// irView is a list whose storage is hoisted into fv[k] (float) or
// iv[k]; the contexts it is subscripted in fix the kind.
type irView struct {
	load  exprFn
	float bool
}

// irInv is a boxed scalar the nest reads but never assigns, unboxed
// at entry into an int and/or a float register (-1 = not needed).
type irInv struct {
	load exprFn
	reg  [2]int32
}

// irConst is a register preloaded with v, or for a float register
// with the float whose bits v holds.
type irConst struct {
	reg   int32
	float bool
	v     int64
}

// irEntered is a test hook: when set (before any compiled code runs)
// it is told of every program whose entry guards held, which is how
// tests assert that a loop lowered and did not deopt.
var irEntered func(p *irProg)

// enter checks every guard of the program against the frame's current
// bindings and loads views, invariants and constants. It reports
// false, with nothing observable changed, when this execution must
// take the closure form.
func (p *irProg) enter(fr *Frame) bool {
	for i := range p.guards {
		g := &p.guards[i]
		v, err := g.load(fr)
		if err != nil {
			return false
		}
		if bf, ok := v.(*interp.Builtin); g.builtin && (!ok || bf.Name != g.name) {
			return false
		}
		if m, ok := v.(*interp.Module); !g.builtin && (!ok || m.Name != g.name) {
			return false
		}
	}
	if n := len(p.views); len(fr.fv) < n {
		fr.fv, fr.iv = make([][]float64, n), make([][]int64, n)
	}
	for k := range p.views {
		v, err := p.views[k].load(fr)
		l, ok := v.(*interp.List)
		if err != nil || !ok {
			return false
		}
		if p.views[k].float {
			fr.fv[k], ok = l.FloatData()
		} else {
			fr.iv[k], ok = l.IntData()
		}
		if !ok {
			return false
		}
	}
	for i := range p.invs {
		inv := &p.invs[i]
		v, err := inv.load(fr)
		n, isInt := interp.AsInt(v)
		x, isNum := interp.AsFloat(v)
		if err != nil || inv.reg[0] >= 0 && !isInt || inv.reg[1] >= 0 && !isNum {
			return false
		}
		if inv.reg[0] >= 0 {
			fr.i[inv.reg[0]] = n
		}
		if inv.reg[1] >= 0 {
			fr.f[inv.reg[1]] = x
		}
	}
	for _, c := range p.consts {
		if c.float {
			fr.f[c.reg] = math.Float64frombits(uint64(c.v))
		} else {
			fr.i[c.reg] = c.v
		}
	}
	if irEntered != nil {
		irEntered(p)
	}
	return true
}

// run executes the program after a successful enter (for a range loop,
// over the evaluated range arguments) and converts the outcome to the
// statement protocol of the closure chain.
func (p *irProg) run(fr *Frame, start, stop, step int64) (flow, error) {
	if p.state >= 0 {
		st := fr.i[p.state : p.state+3]
		st[0], st[1], st[2] = start, stop, step
	}
	fl := p.exec(fr)
	err := fr.fault
	fr.fault = nil
	return fl, err
}

// tick is the budget poll of closure-chain loops: called once per
// back-edge, it charges the execution budget every pollStride calls.
func (fr *Frame) tick(pos minipy.Position) error {
	if fr.poll--; fr.poll > 0 {
		return nil
	}
	fr.poll = pollStride
	return fr.th.Charge(pollStride, pos)
}

// elem resolves index i into a list of n elements, wrapping a negative
// index once; ok is false when it is out of range.
func elem(i int64, n int) (int64, bool) {
	if uint64(i) < uint64(n) {
		return i, true
	}
	i += int64(n)
	return i, uint64(i) < uint64(n)
}

// exec is the one interpreter loop of the IR. It returns flowReturn
// with fr.ret set, or flowNext with fr.fault set if the loop faulted.
func (p *irProg) exec(fr *Frame) flow {
	code, f, r := p.code, fr.f, fr.i
	fault := interp.FaultNone
	pc := int32(0)
run:
	for {
		in := &code[pc]
		pc++
		switch in.op {
		case opEnd:
			return flowNext
		case opRetNone:
			fr.ret = nil
			return flowReturn
		case opRetI:
			fr.ret = r[in.a]
			return flowReturn
		case opRetF:
			fr.ret = f[in.a]
			return flowReturn
		case opJmp:
			pc = in.c
		case opForPrep:
			start, stop, step := r[in.a], r[in.a+1], r[in.a+2]
			n := int64(0)
			switch {
			case step == 0:
				fault = interp.FaultStep
				break run
			case step > 0 && start < stop:
				n = (stop - start + step - 1) / step
			case step < 0 && start > stop:
				n = (start - stop - step - 1) / -step
			}
			if n == 0 {
				pc = in.c
				break
			}
			r[in.a+1], r[in.b] = n, start
		case opForNext, opBack:
			if in.op == opForNext {
				n := r[in.a+1] - 1
				if r[in.a+1] = n; n <= 0 {
					break
				}
				v := r[in.a] + r[in.a+2]
				r[in.a], r[in.b] = v, v
			}
			pc = in.c
			if fr.poll--; fr.poll <= 0 {
				fr.poll = pollStride
				if fr.fault = fr.th.Charge(pollStride, p.pos[pc]); fr.fault != nil {
					return flowNext
				}
			}

		case opJLtI:
			if r[in.a] < r[in.b] {
				pc = in.c
			}
		case opJLeI:
			if r[in.a] <= r[in.b] {
				pc = in.c
			}
		case opJEqI:
			if r[in.a] == r[in.b] {
				pc = in.c
			}
		case opJNeI:
			if r[in.a] != r[in.b] {
				pc = in.c
			}
		case opJLtF:
			if f[in.a] < f[in.b] {
				pc = in.c
			}
		case opJNLtF:
			if !(f[in.a] < f[in.b]) {
				pc = in.c
			}
		case opJLeF:
			if f[in.a] <= f[in.b] {
				pc = in.c
			}
		case opJNLeF:
			if !(f[in.a] <= f[in.b]) {
				pc = in.c
			}
		case opJEqF:
			if f[in.a] == f[in.b] {
				pc = in.c
			}
		case opJNeF:
			if f[in.a] != f[in.b] {
				pc = in.c
			}

		case opMovI:
			r[in.a] = r[in.b]
		case opMovF:
			f[in.a] = f[in.b]
		case opItoF:
			f[in.a] = float64(r[in.b])
		case opFtoI:
			r[in.a] = int64(math.Trunc(f[in.b]))
		case opNegI:
			r[in.a] = -r[in.b]
		case opInvI:
			r[in.a] = ^r[in.b]
		case opAbsI:
			r[in.a] = max(r[in.b], -r[in.b])
		case opNegF:
			f[in.a] = -f[in.b]
		case opAbsF:
			f[in.a] = math.Abs(f[in.b])
		case opMath1:
			x := f[in.b]
			y := p.math1[in.c](x)
			if math.IsNaN(y) && !math.IsNaN(x) {
				fault = interp.FaultDomain
				break run
			}
			f[in.a] = y

		case opAddI:
			r[in.a] = r[in.b] + r[in.c]
		case opSubI:
			r[in.a] = r[in.b] - r[in.c]
		case opMulI:
			r[in.a] = r[in.b] * r[in.c]
		case opBinI:
			v, ft := binI[in.d].fn(r[in.b], r[in.c])
			if ft != interp.FaultNone {
				fault = ft
				break run
			}
			r[in.a] = v
		case opAddF:
			f[in.a] = f[in.b] + f[in.c]
		case opSubF:
			f[in.a] = f[in.b] - f[in.c]
		case opMulF:
			f[in.a] = f[in.b] * f[in.c]
		case opDivF:
			d := f[in.c]
			if d == 0 {
				fault = interp.FaultDivF
				break run
			}
			f[in.a] = f[in.b] / d
		case opBinF:
			v, ft := binF[in.d].fn(f[in.b], f[in.c])
			if ft != interp.FaultNone {
				fault = ft
				break run
			}
			f[in.a] = v
		case opMulAddF:
			f[in.a] = f[in.d] + float64(f[in.b]*f[in.c])
		case opMulSubF:
			f[in.a] = f[in.d] - float64(f[in.b]*f[in.c])

		case opLoadI:
			s := fr.iv[in.b]
			i, ok := elem(r[in.c]+r[in.d], len(s))
			if !ok {
				fault = interp.FaultLoad
				break run
			}
			r[in.a] = s[i]
		case opLoadF:
			s := fr.fv[in.b]
			i, ok := elem(r[in.c]+r[in.d], len(s))
			if !ok {
				fault = interp.FaultLoad
				break run
			}
			f[in.a] = s[i]
		case opStoreI:
			s := fr.iv[in.a]
			i, ok := elem(r[in.b]+r[in.c], len(s))
			if !ok {
				fault = interp.FaultStore
				break run
			}
			s[i] = r[in.d]
		case opStoreF:
			s := fr.fv[in.a]
			i, ok := elem(r[in.b]+r[in.c], len(s))
			if !ok {
				fault = interp.FaultStore
				break run
			}
			s[i] = f[in.d]
		}
	}
	fr.fault = fault.Err(p.pos[pc-1])
	return flowNext
}
