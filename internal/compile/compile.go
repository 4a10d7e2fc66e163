// Package compile implements the Compiled and CompiledDT execution
// modes: MiniPy functions are translated into trees of Go closures
// with slot-addressed frames, eliminating the tree-walker's AST
// dispatch and map-based environments — the role Cython plays for
// OMP4Py user code.
//
// Without type information (the paper's Compiled mode) values stay
// boxed and operators go through the same object protocol the
// interpreter uses, mirroring Cython's conservative default. With
// Options.Typed (CompiledDT), int/float annotations, literals, and
// range loop variables drive a local type inference that assigns
// unboxed int64/float64 frame slots and specializes arithmetic,
// comparisons, and list element access into native Go code.
package compile

import (
	"fmt"
	"sync"

	"github.com/omp4go/omp4go/internal/interp"
	"github.com/omp4go/omp4go/internal/minipy"
)

// Options configure compilation.
type Options struct {
	// Typed enables the CompiledDT specialization.
	Typed bool
	// Only restricts compilation to the named top-level functions
	// (per-function @omp(compile=True)); nil compiles every
	// module-level function, as passing the whole module through
	// Cython does.
	Only map[string]bool
	// Kernels selects whether annotated loop nests compile to the
	// typed loop IR, and worksharing loops with compile-time-known
	// static schedules to kernels that iterate rt.StaticBounds,
	// instead of the closure chain and the per-chunk interp bridge.
	// The default KernelsAuto consults the OMP4GO_COMPILE_KERNELS ICV
	// at Install time; both additionally require Typed.
	Kernels KernelMode
}

// KernelMode is the three-way compiled-kernel switch.
type KernelMode int

const (
	// KernelsAuto defers to rt.Runtime.CompiledKernelsEnabled (the
	// OMP4GO_COMPILE_KERNELS ICV, default on).
	KernelsAuto KernelMode = iota
	// KernelsOn forces IR and kernel compilation (still requires
	// Typed).
	KernelsOn
	// KernelsOff compiles every loop to the closure chain and every
	// worksharing loop onto the interp bridge: the differential
	// baseline the IR is validated against.
	KernelsOff
)

// Install compiles the module's top-level functions and hooks the
// interpreter so their function objects execute compiled code. Call
// it after transformation and before interp.RunModule.
func Install(in *interp.Interp, mod *minipy.Module, opts Options) error {
	c := &compiler{in: in, opts: opts, table: make(map[*minipy.FuncDef]*funcCode), noLower: make(map[minipy.Stmt]bool)}
	// The IR/kernel decision is made once, here: the escape hatch is
	// an ICV (environment or rt.Runtime.SetCompiledKernels), read
	// before any function compiles. Toggling the ICV after Install does
	// not re-lower already-compiled loops.
	switch opts.Kernels {
	case KernelsOn:
		c.kernels = opts.Typed
	case KernelsOff:
		c.kernels = false
	default:
		c.kernels = opts.Typed && in.Runtime().CompiledKernelsEnabled()
	}
	for _, s := range mod.Body {
		fd, ok := s.(*minipy.FuncDef)
		if !ok {
			continue
		}
		if opts.Only != nil && !opts.Only[fd.Name] {
			continue
		}
		code, err := c.compileFunc(fd, nil)
		if err != nil {
			return fmt.Errorf("compile %s: %w", fd.Name, err)
		}
		c.table[fd] = code
	}
	in.SetCompileHook(func(fd *minipy.FuncDef, fn *interp.Function) {
		if code, ok := c.table[fd]; ok {
			fn.Compiled = code.entry(nil, fn)
		}
	})
	return nil
}

type compiler struct {
	in      *interp.Interp
	opts    Options
	kernels bool // resolved kernel switch (Typed && mode/ICV)
	table   map[*minipy.FuncDef]*funcCode
	// lazyMu serializes the closure forms built after Install, when an
	// IR loop first fails an entry guard (see lazy).
	lazyMu sync.Mutex
	// noLower are loops the lowering of an enclosing nest already found
	// inexpressible as IR; irCode and irPos are its scratch buffers.
	noLower map[minipy.Stmt]bool
	irCode  []irInst
	irPos   []minipy.Position
}

// Frame is one activation of a compiled function.
type Frame struct {
	th    *interp.Thread
	slots []interp.Value
	cells []*interp.Cell
	free  []*interp.Cell
	f     []float64
	i     []int64
	ret   interp.Value
	// f and i double as the register files of the typed loop IR
	// (ir.go): named slots first, then each function's IR temporaries.
	// fv/iv are the list storage views an IR loop hoisted at entry,
	// fault is where a failing IR instruction leaves its error, and
	// poll counts loop back-edges down to the next budget charge.
	fv    [][]float64
	iv    [][]int64
	fault error
	poll  int32
}

// flow is the statement outcome: sequential, break, continue, or
// return (with fr.ret set).
type flow int

const (
	flowNext flow = iota
	flowBreak
	flowContinue
	flowReturn
)

type stmtFn func(fr *Frame) (flow, error)

type exprFn func(fr *Frame) (interp.Value, error)

// numFn is an unboxed computation on one of the two typed paths.
type numFn[T int64 | float64] func(fr *Frame) (T, error)

type (
	floatFn = numFn[float64]
	intFn   = numFn[int64]
)

// funcCode is the compiled form of one function.
type funcCode struct {
	name      string
	pos       minipy.Position
	params    []minipy.Param
	nSlots    int
	nCells    int
	nF, nI    int
	captures  []captureSrc // how to fill frame.free from the enclosing frame
	paramBind []varRef     // where each call argument goes
	body      stmtFn
}

// captureSrc says where a free cell comes from in the defining frame.
type captureSrc struct {
	fromFree bool
	idx      int
}

// entry builds the callable entry point for this code, closing over
// the defining frame (nil for top-level functions). fnVal supplies
// defaults.
func (code *funcCode) entry(defFrame *Frame, fnVal *interp.Function) func(*interp.Thread, []interp.Value) (interp.Value, error) {
	// Resolve the free-variable cells once, at closure creation.
	free := make([]*interp.Cell, len(code.captures))
	for k, cap := range code.captures {
		if defFrame == nil {
			free[k] = &interp.Cell{}
			continue
		}
		if cap.fromFree {
			free[k] = defFrame.free[cap.idx]
		} else {
			free[k] = defFrame.cells[cap.idx]
		}
	}
	return func(th *interp.Thread, args []interp.Value) (interp.Value, error) {
		if len(args) > len(code.params) {
			return nil, interp.NewPyError("TypeError",
				fmt.Sprintf("%s() takes %d positional arguments but %d were given",
					code.name, len(code.params), len(args)),
				minipy.Position{})
		}
		fr := &Frame{
			th:   th,
			free: free,
			poll: pollStride,
		}
		if code.nSlots > 0 {
			fr.slots = make([]interp.Value, code.nSlots)
			for k := range fr.slots {
				fr.slots[k] = unboundMarker
			}
		}
		if code.nCells > 0 {
			fr.cells = make([]*interp.Cell, code.nCells)
			for k := range fr.cells {
				fr.cells[k] = &interp.Cell{}
			}
		}
		if code.nF > 0 {
			fr.f = make([]float64, code.nF)
		}
		if code.nI > 0 {
			fr.i = make([]int64, code.nI)
		}
		for pi := range code.params {
			var v interp.Value
			switch {
			case pi < len(args):
				v = args[pi]
			case fnVal != nil && pi < len(fnVal.Defaults) && (fnVal.Defaults[pi] != nil || code.params[pi].Default != nil):
				v = fnVal.Defaults[pi]
			default:
				return nil, interp.NewPyError("TypeError",
					fmt.Sprintf("%s() missing required argument: '%s'", code.name, code.params[pi].Name),
					minipy.Position{})
			}
			if b := code.paramBind[pi]; !fr.storeBinding(b, v) {
				return nil, interp.NewPyError("TypeError",
					fmt.Sprintf("%s() argument '%s': expected %s, got %s",
						code.name, code.params[pi].Name, b.typ, interp.TypeName(v)),
					code.pos)
			}
		}
		fl, err := code.body(fr)
		if err != nil {
			return nil, err
		}
		if fl == flowReturn {
			return fr.ret, nil
		}
		return nil, nil
	}
}

// storeBinding stores v into the binding ref names. Like every store
// into a binding typed int or float it coerces the value, and reports
// false when it cannot.
func (fr *Frame) storeBinding(ref varRef, v interp.Value) (ok bool) {
	switch ref.kind {
	case refFSlot:
		fr.f[ref.idx], ok = interp.AsFloat(v)
		return ok
	case refISlot:
		fr.i[ref.idx], ok = interp.AsInt(v)
		return ok
	case refSlot:
		fr.slots[ref.idx] = v
	default: // refCell, refFree
		if isNumeric(ref.typ) {
			if v, ok = coerce(ref.typ, v); !ok {
				return false
			}
		}
		ref.cellIn(fr).SetValue(v)
	}
	return true
}
