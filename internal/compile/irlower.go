package compile

import (
	"math"
	"slices"

	"github.com/omp4go/omp4go/internal/minipy"
)

// This file lowers an annotated loop nest to an irProg. The lowering
// makes the same type-directed decisions as the closure compiler in
// texpr.go — an expression is computed on the int or the float path
// exactly where compileInt / compileFloat / compileCond would be used
// — so the two forms agree bit for bit; what differs is the leaves.
// Where the closure chain falls back to a boxed operation, the IR
// either proves it unnecessary under an entry guard (a list the nest
// only subscripts becomes a hoisted view, a boxed name it only reads
// becomes an invariant register, math.* and abs/min/max/int/float are
// inlined) or gives up: lowerLoop returns nil and the loop compiles to
// closures. Any call other than those intrinsics makes a nest
// ineligible, which is what keeps a hoisted view from going stale. So
// does a while loop in a nest that reads a boxed name another thread
// can rebind (a global, a captured or a capturing variable): the
// closure form re-reads it every iteration, and a while loop may be
// waiting for exactly that store.

// Temporaries are numbered from zero with a tag bit while lowering and
// relocated above the program's persistent registers at the end.
const (
	irTmpI = 1 << 28
	irTmpF = 1 << 29
)

// irLabel collects the jumps waiting for a forward target.
type irLabel struct{ refs []int }

type irBuilder struct {
	sc *scopeCtx
	p  *irProg
	// code and pos grow in the compiler's scratch buffers; a program
	// that lowers gets right-sized copies.
	code []irInst
	pos  []minipy.Position
	// open are the loops being lowered around the current statement.
	open []minipy.Stmt

	views map[string]int32
	invs  map[string]int
	// intLists are lists some int context of the nest reads: their
	// storage is hoisted as ints and float contexts convert.
	intLists map[string]bool
	// failed is set once the nest turns out not to be expressible;
	// again then names a list to retry with as an intList (see view).
	failed bool
	again  string
	// whiles counts the while loops of the nest; shared is set once an
	// invariant is read from storage other threads can reach. The two
	// together fail the nest (waits).
	whiles int
	shared bool
	// Persistent registers (loop state, constants, invariants) and
	// per-statement temporaries with their high-water marks, all
	// counted above the scope's named slots; index 0 int, 1 float.
	persist, temps, maxTemps [2]int32
	// lastDef is the index of the instruction that alone defines the
	// temporary most recently returned by an expression, or -1.
	lastDef int
	// Innermost-last break / continue targets.
	brk, cont []*irLabel
}

// lowerLoop lowers loop (a *minipy.For over range with an unboxed int
// target, or a *minipy.While) and everything nested in it. The top
// loop's range arguments are the caller's to evaluate (irProg.run). It
// returns nil when the nest is not expressible.
func (c *compiler) lowerLoop(sc *scopeCtx, loop minipy.Stmt) *irProg {
	if c.noLower[loop] {
		return nil
	}
	intLists := map[string]bool{}
	for {
		p, again := lowerOnce(sc, loop, intLists)
		if again == "" {
			return p
		}
		intLists[again] = true
	}
}

func lowerOnce(sc *scopeCtx, loop minipy.Stmt, intLists map[string]bool) (p *irProg, again string) {
	b := &irBuilder{sc: sc, p: &irProg{state: -1}, lastDef: -1, code: sc.c.irCode[:0], pos: sc.c.irPos[:0],
		views: map[string]int32{}, invs: map[string]int{}, intLists: intLists}
	defer func() { sc.c.irCode, sc.c.irPos = b.code, b.pos }()
	switch t := loop.(type) {
	case *minipy.For:
		b.p.state = b.reg(false, 3)
		b.forLoop(t, b.p.state)
	case *minipy.While:
		b.whileLoop(t)
	}
	if b.failed {
		return nil, b.again
	}
	b.emit(opEnd, 0, 0, 0, 0, loop.NodePos())
	// Relocate temporaries above the persistent registers.
	baseI, baseF := b.reg(false, 0), b.reg(true, 0)
	for i := range b.code {
		in := &b.code[i]
		for _, v := range []*int32{&in.a, &in.b, &in.c, &in.d} {
			switch {
			case *v&irTmpI != 0:
				*v = *v&^irTmpI + baseI
			case *v&irTmpF != 0:
				*v = *v&^irTmpF + baseF
			}
		}
	}
	sc.xI = max(sc.xI, b.persist[0]+b.maxTemps[0])
	sc.xF = max(sc.xF, b.persist[1]+b.maxTemps[1])
	b.p.code, b.p.pos = slices.Clone(b.code), slices.Clone(b.pos)
	return b.p, ""
}

// bail marks the nest as not expressible because of the construct
// being lowered; the current statement's lowering runs on harmlessly
// and the output is discarded. Every loop open around the construct is
// inexpressible for the same reason, so none is tried again on its own
// when the nest compiles to closures.
func (b *irBuilder) bail() int32 {
	for _, l := range b.open {
		b.sc.c.noLower[l] = true
	}
	return b.conflict()
}

// conflict marks the nest as not expressible because of how it uses a
// name elsewhere; a loop inside it may still lower alone.
func (b *irBuilder) conflict() int32 {
	b.failed = true
	return 0
}

func (b *irBuilder) emit(op irOp, a, x, c, d int32, pos minipy.Position) int {
	b.code = append(b.code, irInst{op: op, a: a, b: x, c: c, d: d})
	b.pos = append(b.pos, pos)
	b.lastDef = -1
	return len(b.code) - 1
}

// jump emits a jump-class instruction whose target is l.
func (b *irBuilder) jump(op irOp, a, x int32, l *irLabel, pos minipy.Position) {
	l.refs = append(l.refs, b.emit(op, a, x, 0, 0, pos))
}

func (b *irBuilder) bind(l *irLabel) {
	for _, at := range l.refs {
		b.code[at].c = int32(len(b.code))
	}
	b.lastDef = -1
}

func kindOf(float bool) int {
	if float {
		return 1
	}
	return 0
}

// reg allocates n persistent registers of the given file.
func (b *irBuilder) reg(float bool, n int32) int32 {
	k := kindOf(float)
	b.persist[k] += n
	return int32([2]int{len(b.sc.iOf), len(b.sc.fOf)}[k]) + b.persist[k] - n
}

func (b *irBuilder) temp(float bool) int32 {
	k := kindOf(float)
	b.temps[k]++
	b.maxTemps[k] = max(b.maxTemps[k], b.temps[k])
	return [2]int32{irTmpI, irTmpF}[k] | (b.temps[k] - 1)
}

// def emits an instruction computing into a fresh temporary.
func (b *irBuilder) def(op irOp, float bool, x, y, z int32, pos minipy.Position) int32 {
	dst := b.temp(float)
	b.lastDef = b.emit(op, dst, x, y, z, pos)
	return dst
}

// into makes dst hold the value of src: by retargeting the instruction
// that just computed src into a temporary, else by a move.
func (b *irBuilder) into(float bool, dst, src int32, pos minipy.Position) {
	switch at := b.lastDef; {
	case dst == src:
	case at >= 0 && b.code[at].a == src:
		b.code[at].a = dst
		b.lastDef = -1
	default:
		b.emit([2]irOp{opMovI, opMovF}[kindOf(float)], dst, src, 0, 0, pos)
	}
}

// constant returns the register preloaded with the int v or with the
// float whose bits v holds.
func (b *irBuilder) constant(float bool, v int64) int32 {
	for _, c := range b.p.consts {
		if c.v == v && c.float == float {
			return c.reg
		}
	}
	b.p.consts = append(b.p.consts, irConst{b.reg(float, 1), float, v})
	return b.p.consts[len(b.p.consts)-1].reg
}

func (b *irBuilder) constI(v int64) int32   { return b.constant(false, v) }
func (b *irBuilder) constF(v float64) int32 { return b.constant(true, int64(math.Float64bits(v))) }

// invariant returns the register holding the boxed, never-assigned
// name n unboxed as an int or as a float.
func (b *irBuilder) invariant(n *minipy.Name, float bool) int32 {
	k, ok := b.invs[n.ID]
	if _, isView := b.views[n.ID]; isView {
		return b.conflict()
	}
	if !ok {
		b.shared = b.shared || b.sc.resolve(n.ID).kind != refSlot
		if b.waits() {
			return 0
		}
		k = len(b.p.invs)
		b.invs[n.ID] = k
		b.p.invs = append(b.p.invs, irInv{load: b.sc.load(n.ID, n.NodePos()), reg: [2]int32{-1, -1}})
	}
	r := &b.p.invs[k].reg[kindOf(float)]
	if *r < 0 {
		*r = b.reg(float, 1)
	}
	return *r
}

// view returns the view slot of the list subscripted by x, fixing or
// checking its storage kind.
func (b *irBuilder) view(x minipy.Expr, float bool) int32 {
	n, ok := x.(*minipy.Name)
	if !ok {
		return b.bail()
	}
	if k, ok := b.views[n.ID]; ok {
		switch was := b.p.views[k].float; {
		case was && !float:
			// One storage kind per list, and only int storage can serve
			// both kinds of context: start over with it.
			b.again = n.ID
			return b.conflict()
		case !was && float:
			return b.conflict() // a float stored into int storage
		}
		return k
	}
	if float && b.intLists[n.ID] {
		return b.conflict()
	}
	_, isInv := b.invs[n.ID]
	if kind := b.sc.resolve(n.ID).kind; isInv || kind == refFSlot || kind == refISlot {
		return b.conflict()
	}
	b.views[n.ID] = int32(len(b.p.views))
	b.p.views = append(b.p.views, irView{load: b.sc.load(n.ID, n.NodePos()), float: float})
	return b.views[n.ID]
}

// isIntList reports whether the list x names is already known to be
// hoisted as int storage.
func (b *irBuilder) isIntList(x minipy.Expr) bool {
	n, _ := x.(*minipy.Name)
	if n == nil {
		return false
	}
	k, seen := b.views[n.ID]
	return b.intLists[n.ID] || seen && !b.p.views[k].float
}

// guard pins n to the math module (want "math") or, with builtin set,
// to the builtin function of the name want.
func (b *irBuilder) guard(n *minipy.Name, want string, builtin bool) {
	if builtin && b.sc.resolve(n.ID).kind != refGlobal {
		b.bail()
		return
	}
	for _, g := range b.p.guards {
		if g.id == n.ID && g.builtin == builtin {
			return
		}
	}
	b.p.guards = append(b.p.guards, irGuard{load: b.sc.load(n.ID, n.NodePos()), id: n.ID, name: want, builtin: builtin})
}

func (b *irBuilder) typeOf(e minipy.Expr) valType { return exprType(e, b.sc.types) }

// Opcode pairs indexed by register file: int, float.
var (
	irArith = map[string][2]irOp{"+": {opAddI, opAddF}, "-": {opSubI, opSubF}, "*": {opMulI, opMulF}}
	irNeg   = [2]irOp{opNegI, opNegF}
	irAbs   = [2]irOp{opAbsI, opAbsF}
	irLoad  = [2]irOp{opLoadI, opLoadF}
	irStore = [2]irOp{opStoreI, opStoreF}
	irBinOp = [2]irOp{opBinI, opBinF}
)

// irCmp gives the jump taken when a comparison holds and when it does
// not, on ints and then on floats. Ints negate exactly — !(x < y) is
// y <= x, so the two "not" jumps of < and <= want their operands
// swapped — while floats need the negated jumps.
var irCmp = map[string][4]irOp{
	"<":  {opJLtI, opJLeI, opJLtF, opJNLtF},
	"<=": {opJLeI, opJLtI, opJLeF, opJNLeF},
	"==": {opJEqI, opJNeI, opJEqF, opJNeF},
	"!=": {opJNeI, opJEqI, opJNeF, opJEqF},
}

// num lowers e on the float path (where the closure chain would use
// compileFloat) or the int path (compileInt) and returns the register
// holding the value.
func (b *irBuilder) num(e minipy.Expr, float bool) int32 {
	pos, k := e.NodePos(), kindOf(float)
	switch t := e.(type) {
	case *minipy.IntLit:
		if float {
			return b.constF(float64(t.V))
		}
		return b.constI(t.V)
	case *minipy.FloatLit:
		if float {
			return b.constF(t.V)
		}
	case *minipy.Name:
		switch ref := b.sc.resolve(t.ID); {
		case ref.kind == refISlot && float:
			return b.def(opItoF, true, int32(ref.idx), 0, 0, pos)
		case ref.kind == refISlot, ref.kind == refFSlot && float:
			return int32(ref.idx)
		case ref.kind == refFSlot:
			return b.bail()
		}
		return b.invariant(t, float)
	case *minipy.UnaryOp:
		switch {
		case t.Op == "+":
			return b.num(t.X, float)
		case t.Op == "-":
			return b.def(irNeg[k], float, b.num(t.X, float), 0, 0, pos)
		case t.Op == "~" && !float:
			return b.def(opInvI, false, b.num(t.X, false), 0, 0, pos)
		}
	case *minipy.BinOp:
		if r, ok := b.binOp(t, float); ok {
			return r
		}
	case *minipy.Index:
		base, off := b.index(t.I)
		if b.isIntList(t.X) && float {
			// Like the closure chain's boxed fallback: load, convert.
			return b.def(opItoF, true, b.def(opLoadI, false, b.view(t.X, false), base, off, pos), 0, 0, pos)
		}
		return b.def(irLoad[k], float, b.view(t.X, float), base, off, pos)
	case *minipy.IfExp:
		dst, els, end := b.temp(float), &irLabel{}, &irLabel{}
		b.cond(t.Cond, false, els)
		b.into(float, dst, b.num(t.Then, float), pos)
		b.jump(opJmp, 0, 0, end, pos)
		b.bind(els)
		b.into(float, dst, b.num(t.Else, float), pos)
		b.bind(end)
		return dst
	case *minipy.Call:
		if r, ok := b.intrinsic(t, float); ok {
			return r
		}
	}
	// An int-valued expression the float path does not compute (int
	// intrinsics, bit operations) is boxed and coerced by the closure
	// chain: compute it as an int and convert.
	bits, _ := e.(*minipy.BinOp)
	if float && (b.typeOf(e) == tInt || bits != nil && binIndex(binI, bits.Op) >= 0 && !isArith(bits.Op)) {
		return b.def(opItoF, true, b.num(e, false), 0, 0, pos)
	}
	return b.bail()
}

func (b *irBuilder) binOp(t *minipy.BinOp, float bool) (int32, bool) {
	pos, k := t.NodePos(), kindOf(float)
	product := func(e minipy.Expr) *minipy.BinOp {
		m, _ := e.(*minipy.BinOp)
		if m == nil || m.Op != "*" {
			return nil
		}
		return m
	}
	if ops, ok := irArith[t.Op]; ok {
		// z ± x*y is one instruction on floats (still rounded twice).
		if m := product(t.R); float && m != nil && t.Op != "*" {
			fused := opMulAddF
			if t.Op == "-" {
				fused = opMulSubF
			}
			z, x := b.num(t.L, true), b.num(m.L, true)
			return b.def(fused, true, x, b.num(m.R, true), z, pos), true
		}
		if m := product(t.L); float && m != nil && t.Op == "+" {
			x, y := b.num(m.L, true), b.num(m.R, true)
			return b.def(opMulAddF, true, x, y, b.num(t.R, true), pos), true
		}
		l := b.num(t.L, float)
		return b.def(ops[k], float, l, b.num(t.R, float), 0, pos), true
	}
	fn := binIndex(binI, t.Op)
	if float {
		fn = binIndex(binF, t.Op)
	}
	if fn < 0 {
		return 0, false
	}
	l := b.num(t.L, float)
	if float && t.Op == "/" {
		return b.def(opDivF, true, l, b.num(t.R, true), 0, pos), true
	}
	return b.def(irBinOp[k], float, l, b.num(t.R, float), int32(fn), pos), true
}

// index lowers a subscript to the two registers whose sum is the index.
func (b *irBuilder) index(e minipy.Expr) (int32, int32) {
	if t, ok := e.(*minipy.BinOp); ok && t.Op == "+" {
		l := b.num(t.L, false)
		return l, b.num(t.R, false)
	}
	return b.num(e, false), b.constI(0)
}

// intrinsic inlines math.f(...) and the abs/min/max/int/float
// builtins on the requested path. ok=false means any other call.
func (b *irBuilder) intrinsic(t *minipy.Call, float bool) (int32, bool) {
	pos, k := t.NodePos(), kindOf(float)
	if len(t.Keywords) > 0 || len(t.Args) == 0 {
		return 0, false
	}
	arg := t.Args[0]
	if attr, ok := t.Fn.(*minipy.Attribute); ok {
		base, ok := attr.X.(*minipy.Name)
		f1, is1 := nativeMath1[attr.Name]
		fn2 := binIndex(binF, nativeMath2[attr.Name])
		var r int32
		switch {
		case !ok || !float:
			return 0, false
		case is1 && len(t.Args) == 1:
			x := b.num(arg, true)
			b.p.math1 = append(b.p.math1, f1)
			r = b.def(opMath1, true, x, int32(len(b.p.math1)-1), 0, pos)
		case fn2 >= 0 && len(t.Args) == 2:
			x := b.num(arg, true)
			r = b.def(opBinF, true, x, b.num(t.Args[1], true), int32(fn2), pos)
		default:
			return 0, false
		}
		b.guard(base, "math", false)
		return r, true
	}
	fn, ok := t.Fn.(*minipy.Name)
	if !ok {
		return 0, false
	}
	// The types the closure chain infers decide the path (an int result
	// wanted as a float is converted by num's tail). Where it infers
	// none — an argument is a list element or an invariant — it calls
	// the builtin boxed and coerces the result to the path; lowering the
	// arguments on that path computes the same under the entry guards.
	one, at := len(t.Args) == 1, b.typeOf(arg)
	rt := b.typeOf(t)
	fits := rt == tBoxed || rt == tFloat && float || rt == tInt && !float
	var r int32
	switch {
	case fn.ID == "float" && one && float && at == tInt:
		r = b.def(opItoF, true, b.num(arg, false), 0, 0, pos)
	case fn.ID == "int" && one && !float && at == tFloat:
		r = b.def(opFtoI, false, b.num(arg, true), 0, 0, pos)
	case fn.ID == "float" && one && float, fn.ID == "int" && one && !float:
		r = b.num(arg, float)
	case fn.ID == "abs" && one && fits:
		r = b.def(irAbs[k], float, b.num(arg, float), 0, 0, pos)
	case (fn.ID == "min" || fn.ID == "max") && len(t.Args) >= 2 && fits:
		// Folding left to right reproduces the builtin's choice among
		// equal values.
		tab := binIndex(binI, fn.ID)
		if float {
			tab = binIndex(binF, fn.ID)
		}
		r = b.num(arg, float)
		for _, a := range t.Args[1:] {
			r = b.def(irBinOp[k], float, r, b.num(a, float), int32(tab), pos)
		}
	default:
		return 0, false
	}
	b.guard(fn, fn.ID, true)
	return r, true
}

// cond lowers the boolean context e: control jumps to l when e
// evaluates to want and falls through otherwise. It mirrors
// compileCond: int-int comparisons stay exact, any other comparison
// is made on floats.
func (b *irBuilder) cond(e minipy.Expr, want bool, l *irLabel) {
	pos := e.NodePos()
	switch t := e.(type) {
	case *minipy.Compare:
		if len(t.Ops) != 1 {
			b.bail()
			return
		}
		// Two operands without a static type compare boxed in the
		// closure chain; under the entry guards they are numbers, whose
		// boxed comparison is the float one.
		isInt := b.typeOf(t.L) == tInt && b.typeOf(t.Rights[0]) == tInt
		x := b.num(t.L, !isInt)
		y := b.num(t.Rights[0], !isInt)
		// Reduce > and >= to < and <= by swapping the operands.
		op := t.Ops[0]
		if op == ">" || op == ">=" {
			x, y, op = y, x, "<"+op[1:]
		}
		if isInt && !want && op[0] == '<' {
			x, y = y, x
		}
		j := irCmp[op][2*kindOf(!isInt)+kindOf(!want)]
		if j == opEnd {
			b.bail() // in, not in, is, is not
			return
		}
		b.jump(j, x, y, l, pos)
	case *minipy.BoolLit:
		if t.V == want {
			b.jump(opJmp, 0, 0, l, pos)
		}
	case *minipy.BoolOp:
		// "and" leaves on its first false operand, "or" on its first
		// true one; only the last operand decides the rest.
		short := t.Op == "or"
		last := len(t.Values) - 1
		if want == short {
			for _, v := range t.Values {
				b.cond(v, want, l)
			}
			return
		}
		skip := &irLabel{}
		for _, v := range t.Values[:last] {
			b.cond(v, short, skip)
		}
		b.cond(t.Values[last], want, l)
		b.bind(skip)
	default:
		if u, ok := e.(*minipy.UnaryOp); ok && u.Op == "not" {
			b.cond(u.X, !want, l)
			return
		}
		// The boolean context of a typed number: nonzero.
		vt := b.typeOf(e)
		if vt != tInt && vt != tFloat {
			b.bail()
			return
		}
		float := vt == tFloat
		zero := b.constI(0)
		if float {
			zero = b.constF(0)
		}
		b.jump(irCmp["!="][2*kindOf(float)+kindOf(!want)], b.num(e, float), zero, l, pos)
	}
}

func (b *irBuilder) block(body []minipy.Stmt) {
	for _, s := range body {
		b.stmt(s)
	}
}

func (b *irBuilder) stmt(s minipy.Stmt) {
	if b.failed {
		return
	}
	b.temps = [2]int32{}
	pos := s.NodePos()
	switch t := s.(type) {
	case *minipy.Pass:
	case *minipy.AnnAssign:
		if t.Value != nil {
			b.assign(t.Target, t.Value, pos)
		}
	case *minipy.Assign:
		if len(t.Targets) != 1 {
			b.bail()
			return
		}
		b.assign(t.Targets[0], t.Value, pos)
	case *minipy.AugAssign:
		// As in compileTypedAugAssign: an element update needs a typed
		// right-hand side to pick a path.
		if _, ok := t.Target.(*minipy.Index); ok && b.typeOf(t.Value) == tBoxed {
			b.bail()
			return
		}
		rhs := &minipy.BinOp{Op: t.Op, L: t.Target, R: t.Value}
		rhs.P = pos
		b.assign(t.Target, rhs, pos)
	case *minipy.If:
		els, end := &irLabel{}, &irLabel{}
		b.cond(t.Cond, false, els)
		b.block(t.Body)
		if len(t.Else) > 0 {
			b.jump(opJmp, 0, 0, end, pos)
		}
		b.bind(els)
		b.block(t.Else)
		b.bind(end)
	case *minipy.For:
		call, _ := t.Iter.(*minipy.Call)
		args, ok := [3]minipy.Expr{}, false
		if isRangeCall(t.Iter) && len(call.Keywords) == 0 {
			args, ok = rangeArgs(call)
		}
		if !ok {
			b.bail()
			return
		}
		state := b.reg(false, 3)
		for k, arg := range args {
			b.temps = [2]int32{}
			b.into(false, state+int32(k), b.num(arg, false), pos)
		}
		b.forLoop(t, state)
	case *minipy.While:
		b.whileLoop(t)
	case *minipy.Break:
		b.jump(opJmp, 0, 0, b.brk[len(b.brk)-1], pos)
	case *minipy.Continue:
		b.jump(opJmp, 0, 0, b.cont[len(b.cont)-1], pos)
	case *minipy.Return:
		_, none := t.Value.(*minipy.NoneLit)
		switch vt := b.typeOf(t.Value); {
		case t.Value == nil || none:
			b.emit(opRetNone, 0, 0, 0, 0, pos)
		case vt == tInt:
			b.emit(opRetI, b.num(t.Value, false), 0, 0, 0, pos)
		case vt == tFloat:
			b.emit(opRetF, b.num(t.Value, true), 0, 0, 0, pos)
		default:
			b.bail()
		}
	default:
		b.bail()
	}
}

// rangeArgs splits the arguments of a range(...) call into start, stop
// and step, with literals for the defaults.
func rangeArgs(call *minipy.Call) (args [3]minipy.Expr, ok bool) {
	if len(call.Args) < 1 || len(call.Args) > 3 {
		return args, false
	}
	args = [3]minipy.Expr{&minipy.IntLit{V: 0}, call.Args[0], &minipy.IntLit{V: 1}}
	if len(call.Args) > 1 {
		copy(args[:], call.Args)
	}
	return args, true
}

// forLoop lowers the loop whose evaluated range arguments sit in the
// three registers at state.
func (b *irBuilder) forLoop(t *minipy.For, state int32) {
	n, ok := t.Target.(*minipy.Name)
	if !ok {
		b.bail()
		return
	}
	ref := b.sc.resolve(n.ID)
	if ref.kind != refISlot {
		b.bail()
		return
	}
	pos := t.NodePos()
	exit, next := &irLabel{}, &irLabel{}
	b.jump(opForPrep, state, int32(ref.idx), exit, pos)
	head := int32(len(b.code))
	b.loopBody(t, t.Body, exit, next)
	b.bind(next)
	b.emit(opForNext, state, int32(ref.idx), head, 0, pos)
	b.bind(exit)
}

// waits fails a nest in which a while loop could be waiting for another
// thread to rebind a name the IR would read only once.
func (b *irBuilder) waits() bool {
	if b.shared && b.whiles > 0 {
		b.conflict()
	}
	return b.failed
}

func (b *irBuilder) whileLoop(t *minipy.While) {
	if b.whiles++; b.waits() {
		return
	}
	exit, back := &irLabel{}, &irLabel{}
	head := int32(len(b.code))
	b.temps = [2]int32{}
	b.cond(t.Cond, false, exit)
	b.loopBody(t, t.Body, exit, back)
	b.bind(back)
	b.emit(opBack, 0, 0, head, 0, t.NodePos())
	b.bind(exit)
}

func (b *irBuilder) loopBody(loop minipy.Stmt, body []minipy.Stmt, brk, cont *irLabel) {
	b.p.loops++
	b.open, b.brk, b.cont = append(b.open, loop), append(b.brk, brk), append(b.cont, cont)
	b.block(body)
	b.open, b.brk, b.cont = b.open[:len(b.open)-1], b.brk[:len(b.brk)-1], b.cont[:len(b.cont)-1]
}

// assign lowers target = value for an unboxed slot or a list element.
func (b *irBuilder) assign(target, value minipy.Expr, pos minipy.Position) {
	switch d := target.(type) {
	case *minipy.Name:
		ref := b.sc.resolve(d.ID)
		if ref.kind != refFSlot && ref.kind != refISlot {
			b.bail()
			return
		}
		float := ref.kind == refFSlot
		b.into(float, int32(ref.idx), b.num(value, float), pos)
	case *minipy.Index:
		// A float-typed value stores into float storage, an int-typed
		// one into int storage. A value typed only by the elements it
		// reads is an element copy of the source's kind (float unless
		// known int) or int arithmetic; the entry guard on the storage
		// kinds makes the guess safe.
		float := b.typeOf(value) == tFloat
		if src, ok := value.(*minipy.Index); ok {
			float = !b.isIntList(src.X)
		}
		base, off := b.index(d.I)
		v := b.num(value, float)
		b.emit(irStore[kindOf(float)], b.view(d.X, float), base, off, v, d.NodePos())
	default:
		b.bail()
	}
}
