// Package interp implements the MiniPy tree-walking interpreter: the
// stand-in for the free-threaded CPython interpreter that OMP4Py's
// Pure and Hybrid modes execute on. Values are boxed, environments
// are map-based, containers take per-object locks on structural
// mutation, and an optional GIL plus a shared allocation-accounting
// counter model the threading behaviour of CPython (GIL-enabled and
// free-threaded, respectively).
package interp

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"

	"github.com/omp4go/omp4go/internal/minipy"
)

// Value is any MiniPy runtime value: nil (None), bool, int64,
// float64, string, or one of the reference types below.
type Value = any

// List is a MiniPy list with storage strategies: a list holding only
// floats (or only ints) stores them unboxed, and is promoted to
// generic boxed storage the first time a value of another type is
// inserted. This mirrors the specialization that lets the compiled
// modes approach native array performance while the interpreter pays
// boxing costs on every access.
//
// Structural mutations (append, pop, resize) take the per-object
// lock, as free-threaded CPython does; element reads and writes go
// straight to the slice, so disjoint-index parallel updates proceed
// without contention.
type List struct {
	mu   sync.Mutex
	kind listKind
	fs   []float64
	is   []int64
	gs   []Value
}

type listKind int8

const (
	listEmpty listKind = iota
	listFloat
	listInt
	listGeneric
)

// NewList creates a list from boxed values, choosing a specialized
// representation when all elements share a numeric type.
func NewList(vals []Value) *List {
	l := &List{}
	if len(vals) == 0 {
		return l
	}
	allF, allI := true, true
	for _, v := range vals {
		switch v.(type) {
		case float64:
			allI = false
		case int64:
			allF = false
		default:
			allF, allI = false, false
		}
	}
	switch {
	case allF:
		l.kind = listFloat
		l.fs = make([]float64, len(vals))
		for i, v := range vals {
			l.fs[i] = v.(float64)
		}
	case allI:
		l.kind = listInt
		l.is = make([]int64, len(vals))
		for i, v := range vals {
			l.is[i] = v.(int64)
		}
	default:
		l.kind = listGeneric
		l.gs = append([]Value(nil), vals...)
	}
	return l
}

// NewFloatList creates a float-specialized list of length n filled
// with fill.
func NewFloatList(n int, fill float64) *List {
	fs := make([]float64, n)
	if fill != 0 {
		for i := range fs {
			fs[i] = fill
		}
	}
	return &List{kind: listFloat, fs: fs}
}

// AdoptFloats wraps an existing float slice as a float-specialized
// list without copying (bench inputs generated in Go).
func AdoptFloats(fs []float64) *List { return &List{kind: listFloat, fs: fs} }

// AdoptInts wraps an existing int slice as an int-specialized list
// without copying.
func AdoptInts(is []int64) *List { return &List{kind: listInt, is: is} }

// NewIntList creates an int-specialized list of length n filled with
// fill.
func NewIntList(n int, fill int64) *List {
	is := make([]int64, n)
	if fill != 0 {
		for i := range is {
			is[i] = fill
		}
	}
	return &List{kind: listInt, is: is}
}

// Kind reports the current storage strategy (for tests and the
// compiler's fast paths).
func (l *List) Kind() string {
	switch l.kind {
	case listEmpty:
		return "empty"
	case listFloat:
		return "float"
	case listInt:
		return "int"
	}
	return "generic"
}

// Len returns the number of elements.
func (l *List) Len() int {
	switch l.kind {
	case listFloat:
		return len(l.fs)
	case listInt:
		return len(l.is)
	case listGeneric:
		return len(l.gs)
	}
	return 0
}

// Get returns the element at index i (already bounds-checked,
// non-negative).
func (l *List) Get(i int) Value {
	switch l.kind {
	case listFloat:
		return l.fs[i]
	case listInt:
		return l.is[i]
	default:
		return l.gs[i]
	}
}

// Set stores v at index i, promoting the storage if v does not fit
// the current specialization.
func (l *List) Set(i int, v Value) {
	switch l.kind {
	case listFloat:
		if f, ok := v.(float64); ok {
			l.fs[i] = f
			return
		}
	case listInt:
		if n, ok := v.(int64); ok {
			l.is[i] = n
			return
		}
	case listGeneric:
		l.gs[i] = v
		return
	}
	l.promote()
	l.gs[i] = v
}

// FloatAt is the compiled fast path: it returns the unboxed float at
// i when the list uses float storage.
func (l *List) FloatAt(i int) (float64, bool) {
	if l.kind == listFloat {
		return l.fs[i], true
	}
	return 0, false
}

// SetFloatAt is the compiled fast path for float stores.
func (l *List) SetFloatAt(i int, f float64) bool {
	if l.kind == listFloat {
		l.fs[i] = f
		return true
	}
	return false
}

// IntAt is the compiled fast path for int loads.
func (l *List) IntAt(i int) (int64, bool) {
	if l.kind == listInt {
		return l.is[i], true
	}
	return 0, false
}

// SetIntAt is the compiled fast path for int stores.
func (l *List) SetIntAt(i int, n int64) bool {
	if l.kind == listInt {
		l.is[i] = n
		return true
	}
	return false
}

// promote converts to generic storage. Callers must ensure no
// concurrent structural mutation (single-threaded setup phase or
// caller-held lock); element races after promotion are the user's
// data race, as in CPython.
func (l *List) promote() {
	switch l.kind {
	case listFloat:
		l.gs = make([]Value, len(l.fs))
		for i, f := range l.fs {
			l.gs[i] = f
		}
		l.fs = nil
	case listInt:
		l.gs = make([]Value, len(l.is))
		for i, n := range l.is {
			l.gs[i] = n
		}
		l.is = nil
	case listEmpty:
		l.gs = []Value{}
	}
	l.kind = listGeneric
}

// Append adds v at the end under the per-object lock.
func (l *List) Append(v Value) {
	l.mu.Lock()
	defer l.mu.Unlock()
	switch l.kind {
	case listEmpty:
		switch t := v.(type) {
		case float64:
			l.kind = listFloat
			l.fs = append(l.fs, t)
			return
		case int64:
			l.kind = listInt
			l.is = append(l.is, t)
			return
		default:
			l.kind = listGeneric
			l.gs = append(l.gs, v)
			return
		}
	case listFloat:
		if f, ok := v.(float64); ok {
			l.fs = append(l.fs, f)
			return
		}
	case listInt:
		if n, ok := v.(int64); ok {
			l.is = append(l.is, n)
			return
		}
	case listGeneric:
		l.gs = append(l.gs, v)
		return
	}
	l.promote()
	l.gs = append(l.gs, v)
}

// Pop removes and returns the element at index i (or the last when i
// is -1), under the per-object lock.
func (l *List) Pop(i int) (Value, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := l.Len()
	if n == 0 {
		return nil, false
	}
	if i < 0 {
		i += n
	}
	if i < 0 || i >= n {
		return nil, false
	}
	v := l.Get(i)
	switch l.kind {
	case listFloat:
		l.fs = append(l.fs[:i], l.fs[i+1:]...)
	case listInt:
		l.is = append(l.is[:i], l.is[i+1:]...)
	case listGeneric:
		l.gs = append(l.gs[:i], l.gs[i+1:]...)
	}
	return v, true
}

// Insert places v before index i under the per-object lock.
func (l *List) Insert(i int, v Value) {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := l.Len()
	if i < 0 {
		i += n
		if i < 0 {
			i = 0
		}
	}
	if i > n {
		i = n
	}
	if l.kind != listGeneric {
		l.promote()
	}
	l.gs = append(l.gs, nil)
	copy(l.gs[i+1:], l.gs[i:])
	l.gs[i] = v
}

// Slice returns a new list with elements [lo, hi) by step.
func (l *List) Slice(lo, hi, step int) *List {
	out := &List{}
	if step > 0 {
		for i := lo; i < hi; i += step {
			out.Append(l.Get(i))
		}
	} else if step < 0 {
		for i := lo; i > hi; i += step {
			out.Append(l.Get(i))
		}
	}
	return out
}

// Values returns the elements as boxed values (a fresh slice).
func (l *List) Values() []Value {
	out := make([]Value, l.Len())
	for i := range out {
		out[i] = l.Get(i)
	}
	return out
}

// SortFloats sorts in place when float-specialized; generic lists
// sort with the universal comparison (numbers, then strings).
func (l *List) SortInPlace() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	switch l.kind {
	case listFloat:
		sort.Float64s(l.fs)
		return nil
	case listInt:
		sort.Slice(l.is, func(a, b int) bool { return l.is[a] < l.is[b] })
		return nil
	case listGeneric:
		var sortErr error
		sort.SliceStable(l.gs, func(a, b int) bool {
			less, err := valueLess(l.gs[a], l.gs[b])
			if err != nil && sortErr == nil {
				sortErr = err
			}
			return less
		})
		return sortErr
	}
	return nil
}

// FloatData exposes the unboxed float storage (compiled kernels and
// the MPI bridge read it directly). The boolean is false for other
// storage kinds.
func (l *List) FloatData() ([]float64, bool) {
	if l.kind == listFloat {
		return l.fs, true
	}
	return nil, false
}

// IntData exposes the unboxed int storage.
func (l *List) IntData() ([]int64, bool) {
	if l.kind == listInt {
		return l.is, true
	}
	return nil, false
}

// Tuple is an immutable value sequence.
type Tuple struct {
	Elts []Value
}

// Dict is a MiniPy dict preserving insertion order, guarded by a
// per-object lock.
type Dict struct {
	mu      sync.Mutex
	idx     map[any]int
	entries []dictEntry
	live    int
}

type dictEntry struct {
	key    any
	keyVal Value
	val    Value
	dead   bool
}

// NewDict creates an empty dict.
func NewDict() *Dict {
	return &Dict{idx: make(map[any]int)}
}

// hashKey converts a value into a Go-comparable dict key. Tuples
// encode recursively; unhashable values error.
func hashKey(v Value) (any, error) {
	switch t := v.(type) {
	case nil:
		return "\x00none", nil
	case bool:
		// Python: True == 1; we keep bools distinct from ints, which
		// the benchmarks never rely on.
		return t, nil
	case int64:
		return t, nil
	case float64:
		// hash(1.0) == hash(1) in Python: integral floats collapse.
		if t == math.Trunc(t) && !math.IsInf(t, 0) && math.Abs(t) < 1e18 {
			return int64(t), nil
		}
		return t, nil
	case string:
		return "\x00s" + t, nil
	case *Tuple:
		var b strings.Builder
		b.WriteString("\x00t(")
		for _, e := range t.Elts {
			k, err := hashKey(e)
			if err != nil {
				return nil, err
			}
			fmt.Fprintf(&b, "%T:%v;", k, k)
		}
		b.WriteString(")")
		return b.String(), nil
	}
	return nil, &PyError{Type: "TypeError", Msg: fmt.Sprintf("unhashable type: %s", TypeName(v))}
}

// Get looks up a key.
func (d *Dict) Get(key Value) (Value, bool, error) {
	k, err := hashKey(key)
	if err != nil {
		return nil, false, err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if i, ok := d.idx[k]; ok {
		return d.entries[i].val, true, nil
	}
	return nil, false, nil
}

// Set stores key → val.
func (d *Dict) Set(key, val Value) error {
	k, err := hashKey(key)
	if err != nil {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if i, ok := d.idx[k]; ok {
		d.entries[i].val = val
		return nil
	}
	d.idx[k] = len(d.entries)
	d.entries = append(d.entries, dictEntry{key: k, keyVal: key, val: val})
	d.live++
	return nil
}

// Delete removes a key, reporting whether it was present.
func (d *Dict) Delete(key Value) (bool, error) {
	k, err := hashKey(key)
	if err != nil {
		return false, err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	i, ok := d.idx[k]
	if !ok {
		return false, nil
	}
	d.entries[i].dead = true
	delete(d.idx, k)
	d.live--
	if d.live*4 < len(d.entries) && len(d.entries) > 16 {
		d.compact()
	}
	return true, nil
}

func (d *Dict) compact() {
	out := d.entries[:0]
	for _, e := range d.entries {
		if !e.dead {
			d.idx[e.key] = len(out)
			out = append(out, e)
		}
	}
	d.entries = out
}

// Len returns the number of live entries.
func (d *Dict) Len() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.live
}

// Items returns the live (key, value) pairs in insertion order.
func (d *Dict) Items() [][2]Value {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([][2]Value, 0, d.live)
	for _, e := range d.entries {
		if !e.dead {
			out = append(out, [2]Value{e.keyVal, e.val})
		}
	}
	return out
}

// Set is a MiniPy set, guarded by a per-object lock.
type Set struct {
	mu      sync.Mutex
	idx     map[any]int
	entries []dictEntry
	live    int
}

// NewSet creates an empty set.
func NewSet() *Set { return &Set{idx: make(map[any]int)} }

// Add inserts v.
func (s *Set) Add(v Value) error {
	k, err := hashKey(v)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.idx[k]; ok {
		return nil
	}
	s.idx[k] = len(s.entries)
	s.entries = append(s.entries, dictEntry{key: k, keyVal: v})
	s.live++
	return nil
}

// Has reports membership.
func (s *Set) Has(v Value) (bool, error) {
	k, err := hashKey(v)
	if err != nil {
		return false, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.idx[k]
	return ok, nil
}

// Remove deletes v, reporting whether it was present.
func (s *Set) Remove(v Value) (bool, error) {
	k, err := hashKey(v)
	if err != nil {
		return false, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	i, ok := s.idx[k]
	if !ok {
		return false, nil
	}
	s.entries[i].dead = true
	delete(s.idx, k)
	s.live--
	return true, nil
}

// Len returns the number of elements.
func (s *Set) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.live
}

// Values returns the elements in insertion order.
func (s *Set) Values() []Value {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Value, 0, s.live)
	for _, e := range s.entries {
		if !e.dead {
			out = append(out, e.keyVal)
		}
	}
	return out
}

// Range is the value of range(...); iteration is lazy.
type Range struct {
	Start, Stop, Step int64
}

// Len returns the number of values the range yields.
func (r *Range) Len() int64 {
	if r.Step > 0 {
		if r.Stop <= r.Start {
			return 0
		}
		return (r.Stop - r.Start + r.Step - 1) / r.Step
	}
	if r.Step < 0 {
		if r.Stop >= r.Start {
			return 0
		}
		return (r.Start - r.Stop - r.Step - 1) / (-r.Step)
	}
	return 0
}

// Function is a user-defined MiniPy function (a closure over its
// defining environment).
type Function struct {
	Name   string
	Params []minipy.Param
	Body   []minipy.Stmt
	// Result is a lambda's body, the expression whose value it returns;
	// a lambda has no Body.
	Result  minipy.Expr
	Env     *Env
	Scope   *minipy.ScopeInfo
	Globals *Env // module globals of the defining module
	// Compiled, when non-nil, bypasses the tree-walker (installed by
	// the compile package for Compiled/CompiledDT modes).
	Compiled func(th *Thread, args []Value) (Value, error)
	// Defaults are evaluated at definition time, as in Python.
	Defaults []Value
}

// Builtin is a function implemented in Go.
type Builtin struct {
	Name string
	// Sig is the positional arity CallKw checks before Fn or FnKw
	// runs; the zero Sig leaves the count to the implementation.
	Sig Sig
	// Fn receives the calling thread (for OMP context, GIL and
	// allocation accounting) and the positional arguments.
	Fn func(th *Thread, args []Value) (Value, error)
	// FnKw, when set, handles calls that pass keyword arguments, and
	// every call when Fn is nil.
	FnKw func(th *Thread, args []Value, kwargs map[string]Value) (Value, error)
	// ReleasesGIL marks runtime functions that block (barriers, task
	// waits): the interpreter drops the GIL around the call the way
	// CPython extensions do.
	ReleasesGIL bool
}

// Module is a builtin module value with attributes.
type Module struct {
	Name  string
	Attrs map[string]Value
}

// BoundMethod pairs a receiver with a method implemented in Go.
type BoundMethod struct {
	Recv Value
	Name string
	Sig  Sig
	Fn   func(th *Thread, recv Value, args []Value) (Value, error)
}

// TypeName returns the Python-style type name of a value.
func TypeName(v Value) string {
	switch v.(type) {
	case nil:
		return "NoneType"
	case bool:
		return "bool"
	case int64:
		return "int"
	case float64:
		return "float"
	case string:
		return "str"
	case *List:
		return "list"
	case *Tuple:
		return "tuple"
	case *Dict:
		return "dict"
	case *Set:
		return "set"
	case *Range:
		return "range"
	case *Function:
		return "function"
	case *Builtin:
		return "builtin_function_or_method"
	case *BoundMethod:
		return "builtin_function_or_method"
	case *Module:
		return "module"
	case *ExcValue:
		return "exception"
	}
	return fmt.Sprintf("%T", v)
}

// Truthy implements Python truthiness.
func Truthy(v Value) bool {
	switch t := v.(type) {
	case nil:
		return false
	case bool:
		return t
	case int64:
		return t != 0
	case float64:
		return t != 0
	case string:
		return t != ""
	case *List:
		return t.Len() > 0
	case *Tuple:
		return len(t.Elts) > 0
	case *Dict:
		return t.Len() > 0
	case *Set:
		return t.Len() > 0
	case *Range:
		return t.Len() > 0
	}
	return true
}

// Repr renders a value the way Python's repr does.
func Repr(v Value) string {
	switch t := v.(type) {
	case nil:
		return "None"
	case bool:
		if t {
			return "True"
		}
		return "False"
	case int64:
		return strconv.FormatInt(t, 10)
	case float64:
		return formatFloat(t)
	case string:
		return "'" + strings.ReplaceAll(t, "'", "\\'") + "'"
	case *List:
		parts := make([]string, t.Len())
		for i := 0; i < t.Len(); i++ {
			parts[i] = Repr(t.Get(i))
		}
		return "[" + strings.Join(parts, ", ") + "]"
	case *Tuple:
		parts := make([]string, len(t.Elts))
		for i, e := range t.Elts {
			parts[i] = Repr(e)
		}
		if len(parts) == 1 {
			return "(" + parts[0] + ",)"
		}
		return "(" + strings.Join(parts, ", ") + ")"
	case *Dict:
		items := t.Items()
		parts := make([]string, len(items))
		for i, kv := range items {
			parts[i] = Repr(kv[0]) + ": " + Repr(kv[1])
		}
		return "{" + strings.Join(parts, ", ") + "}"
	case *Set:
		vals := t.Values()
		if len(vals) == 0 {
			return "set()"
		}
		parts := make([]string, len(vals))
		for i, e := range vals {
			parts[i] = Repr(e)
		}
		return "{" + strings.Join(parts, ", ") + "}"
	case *Range:
		if t.Step == 1 {
			return fmt.Sprintf("range(%d, %d)", t.Start, t.Stop)
		}
		return fmt.Sprintf("range(%d, %d, %d)", t.Start, t.Stop, t.Step)
	case *Function:
		return "<function " + t.Name + ">"
	case *Builtin:
		return "<built-in function " + t.Name + ">"
	case *BoundMethod:
		return "<built-in method " + t.Name + ">"
	case *Module:
		return "<module '" + t.Name + "'>"
	case *ExcValue:
		return t.Type + "(" + Repr(t.Msg) + ")"
	}
	return fmt.Sprintf("<%T>", v)
}

// Str renders a value the way Python's str does (strings unquoted).
func Str(v Value) string {
	if s, ok := v.(string); ok {
		return s
	}
	return Repr(v)
}

func formatFloat(f float64) string {
	if math.IsInf(f, 1) {
		return "inf"
	}
	if math.IsInf(f, -1) {
		return "-inf"
	}
	if math.IsNaN(f) {
		return "nan"
	}
	s := strconv.FormatFloat(f, 'g', -1, 64)
	if !strings.ContainsAny(s, ".eE") {
		s += ".0"
	}
	return s
}

// ExcValue is an exception object created by ValueError("...") etc.
type ExcValue struct {
	Type string
	Msg  Value
}
