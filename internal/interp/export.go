package interp

import "github.com/omp4go/omp4go/internal/minipy"

// This file exports the operator semantics to the compile package,
// which reuses them for the boxed paths of compiled code (Cython,
// likewise, falls back to C-API object protocol calls wherever static
// types are unknown).

// BinaryOp applies a MiniPy binary operator to boxed values.
func (th *Thread) BinaryOp(op string, l, r Value, pos minipy.Position) (Value, error) {
	return th.binaryOp(op, l, r, pos)
}

// UnaryOpValue applies a unary operator to a boxed value.
func (th *Thread) UnaryOpValue(op string, x Value, pos minipy.Position) (Value, error) {
	return th.unaryOp(op, x, pos)
}

// CompareValues applies one comparison operator.
func (th *Thread) CompareValues(op string, l, r Value, pos minipy.Position) (bool, error) {
	return th.compareOp(op, l, r, pos)
}

// GetItem implements container[index].
func (th *Thread) GetItem(cont, idx Value, pos minipy.Position) (Value, error) {
	return th.getItem(cont, idx, pos)
}

// SetItem implements container[index] = value.
func (th *Thread) SetItem(cont, idx, v Value, pos minipy.Position) error {
	return th.setItem(cont, idx, v, pos)
}

// GetAttr implements obj.name.
func (th *Thread) GetAttr(obj Value, name string, pos minipy.Position) (Value, error) {
	return th.getAttr(obj, name, pos)
}

// IterValues materializes an iterable.
func IterValues(v Value) ([]Value, error) { return iterValues(v) }

// ValueEqual implements Python ==.
func ValueEqual(l, r Value) bool { return valueEqual(l, r) }

// AsInt extracts an int64 from an int or bool value.
func AsInt(v Value) (int64, bool) { return asInt(v) }

// AsFloat extracts a float64 from any numeric value.
func AsFloat(v Value) (float64, bool) { return asFloat(v) }

// NewPyError builds a MiniPy exception (compiled code raises the
// same exception values the interpreter does).
func NewPyError(typ, msg string, pos minipy.Position) error {
	return &PyError{Type: typ, Msg: msg, Pos: pos}
}

// Account records a boxed allocation (compiled boxed paths share the
// interpreter's contention model accounting).
func (th *Thread) Account() { th.account() }

// RaiseValue converts a raised value into the exception error the
// raise statement produces.
func RaiseValue(v Value, pos minipy.Position) error {
	switch e := v.(type) {
	case *ExcValue:
		return &PyError{Type: e.Type, Msg: Str(e.Msg), Pos: pos, Value: e}
	case *Builtin:
		return &PyError{Type: e.Name, Msg: "", Pos: pos}
	case string:
		return &PyError{Type: "Exception", Msg: e, Pos: pos}
	}
	return typeErrorf(pos, "exceptions must derive from BaseException")
}

// DeleteItem implements del container[index].
func DeleteItem(cont, idx Value, pos minipy.Position) error {
	switch c := cont.(type) {
	case *Dict:
		ok, err := c.Delete(idx)
		if err != nil {
			return err
		}
		if !ok {
			return &PyError{Type: "KeyError", Msg: Repr(idx), Pos: pos}
		}
		return nil
	case *List:
		i, ok := asInt(idx)
		if !ok {
			return typeErrorf(pos, "list indices must be integers")
		}
		if _, ok := c.Pop(int(i)); !ok {
			return FaultLoad.Err(pos)
		}
		return nil
	}
	return typeErrorf(pos, "cannot delete item of %s", TypeName(cont))
}

// SetAttrValue implements obj.name = v (module attributes only, as
// in the interpreter).
func SetAttrValue(obj Value, name string, v Value, pos minipy.Position) error {
	if m, ok := obj.(*Module); ok {
		m.Attrs[name] = v
		return nil
	}
	return typeErrorf(pos, "cannot set attribute %q on %s", name, TypeName(obj))
}

// ImportModule resolves a builtin module by name.
func (in *Interp) ImportModule(name string) (Value, error) {
	if m, ok := in.modules[name]; ok {
		return m, nil
	}
	return nil, &PyError{Type: "ImportError", Msg: "no module named '" + name + "'"}
}

// SetCompileHook installs a callback invoked whenever a function
// object is created from a def statement; the compile package uses it
// to attach precompiled entry points to top-level functions.
func (in *Interp) SetCompileHook(hook func(fd *minipy.FuncDef, fn *Function)) {
	in.compileHook = hook
}

// MakeCompiledFunction builds a function value whose execution is
// fully delegated to entry (used by the compiler for nested function
// definitions).
func MakeCompiledFunction(name string, params []minipy.Param, defaults []Value,
	entry func(th *Thread, args []Value) (Value, error)) *Function {
	return &Function{Name: name, Params: params, Defaults: defaults, Compiled: entry}
}
