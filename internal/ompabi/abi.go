// Package ompabi declares the runtime ABI of transformer-generated
// code: the entry points of the __omp module, each with its
// parameters, their kinds and whether the call blocks. It is the one
// place an entry is spelled. internal/transform builds its calls with
// Call, and internal/interp registers one implementation per Entry and
// checks arity from the same specs.
package ompabi

import (
	"fmt"

	"github.com/omp4go/omp4go/internal/minipy"
)

// Module is the name through which generated code reaches the runtime.
const Module = "__omp"

// Kind is what one parameter accepts.
type Kind uint8

const (
	Any    Kind = iota // any value
	Int                // an int (a bool counts, as in Python)
	Bool               // any value, read by its truth (CPython's "p" converter)
	Str                // a str
	Fn                 // a callable
	Bounds             // the loop descriptor for_bounds returns
	Tuple              // a tuple
)

var kindNames = [...]string{Any: "any", Int: "int", Bool: "bool", Str: "str",
	Fn: "callable", Bounds: "loop bounds", Tuple: "tuple"}

func (k Kind) String() string { return kindNames[k] }

// Zero is the default of an optional parameter of kind k, as source.
func (k Kind) Zero() string {
	switch k {
	case Str:
		return `""`
	case Tuple:
		return "()"
	}
	panic("ompabi: no default for kind " + k.String())
}

// Param is one positional parameter of an entry.
type Param struct {
	Name string
	Kind Kind
}

// Spec declares one entry. The parameters past Required are optional
// and default to their kind's zero value (Kind.Zero). A Variadic
// entry takes its parameters as a group repeated one or more times.
type Spec struct {
	Name        string
	Params      []Param
	Required    int
	Variadic    bool
	ReleasesGIL bool // the call may block: the GIL is dropped around it
}

// Entry names one runtime entry point.
type Entry uint8

const (
	ParallelRun Entry = iota
	ForBounds
	ForInit
	ForNext
	ForLast
	ForEnd
	LinLo
	LinHi
	Unravel
	Barrier
	SingleBegin
	SingleCopyprivate
	SingleEnd
	SectionsBegin
	SectionsNext
	SectionsLast
	SectionsEnd
	Master
	CriticalEnter
	CriticalExit
	MutexLock
	MutexUnlock
	Flush
	TaskSubmit
	TaskWait
	Taskloop
	TaskgroupBegin
	TaskgroupEnd
	OrderedBegin
	OrderedEnd
	DeclareReduction
	ReduceInit
	ReduceCombine
	NumEntries
)

var (
	bounds   = []Param{{"bounds", Bounds}}
	critical = []Param{{"name", Str}}
)

// Specs is the ABI, indexed by Entry.
var Specs = [NumEntries]Spec{
	ParallelRun: {Name: "parallel_run", Required: 4, ReleasesGIL: true, Params: []Param{
		{"fn", Fn}, {"num_threads", Int}, {"if_set", Bool}, {"if_val", Bool}, {"label", Str}}},
	ForBounds: {Name: "for_bounds", Required: 3, Variadic: true, Params: []Param{
		{"start", Int}, {"stop", Int}, {"step", Int}}},
	ForInit: {Name: "for_init", Required: 5, Params: []Param{
		{"bounds", Bounds}, {"kind", Str}, {"chunk", Any}, {"ordered", Bool}, {"nowait", Bool}}},
	ForNext: {Name: "for_next", Required: 1, Params: bounds},
	ForLast: {Name: "for_last", Required: 1, Params: bounds},
	ForEnd:  {Name: "for_end", Required: 1, Params: bounds, ReleasesGIL: true},
	LinLo:   {Name: "lin_lo", Required: 1, Params: bounds},
	LinHi:   {Name: "lin_hi", Required: 1, Params: bounds},
	Unravel: {Name: "unravel", Required: 2, Params: []Param{{"bounds", Bounds}, {"index", Int}}},
	Barrier: {Name: "barrier", ReleasesGIL: true},
	SingleBegin: {Name: "single_begin", Required: 2, Params: []Param{
		{"nowait", Bool}, {"copyprivate", Bool}}},
	SingleCopyprivate: {Name: "single_copyprivate", Required: 1, Params: []Param{{"values", Tuple}}},
	SingleEnd:         {Name: "single_end", ReleasesGIL: true},
	SectionsBegin: {Name: "sections_begin", Required: 2, Params: []Param{
		{"count", Int}, {"nowait", Bool}}},
	SectionsNext:  {Name: "sections_next"},
	SectionsLast:  {Name: "sections_last"},
	SectionsEnd:   {Name: "sections_end", ReleasesGIL: true},
	Master:        {Name: "master"},
	CriticalEnter: {Name: "critical_enter", Required: 1, Params: critical, ReleasesGIL: true},
	CriticalExit:  {Name: "critical_exit", Required: 1, Params: critical},
	MutexLock:     {Name: "mutex_lock", ReleasesGIL: true},
	MutexUnlock:   {Name: "mutex_unlock"},
	Flush:         {Name: "flush"},
	TaskSubmit: {Name: "task_submit", Required: 5, ReleasesGIL: true, Params: []Param{
		{"fn", Fn}, {"if_set", Bool}, {"if_val", Bool}, {"final_set", Bool}, {"final_val", Bool},
		{"depend_in", Tuple}, {"depend_out", Tuple}, {"depend_inout", Tuple}}},
	TaskWait: {Name: "task_wait", ReleasesGIL: true},
	Taskloop: {Name: "taskloop", Required: 11, ReleasesGIL: true, Params: []Param{
		{"fn", Fn}, {"start", Int}, {"stop", Int}, {"step", Int}, {"grainsize", Int},
		{"num_tasks", Int}, {"nogroup", Bool}, {"if_set", Bool}, {"if_val", Bool},
		{"final_set", Bool}, {"final_val", Bool}}},
	TaskgroupBegin: {Name: "taskgroup_begin"},
	TaskgroupEnd:   {Name: "taskgroup_end", ReleasesGIL: true},
	OrderedBegin:   {Name: "ordered_begin", Required: 1, Params: []Param{{"iteration", Int}}, ReleasesGIL: true},
	OrderedEnd:     {Name: "ordered_end"},
	DeclareReduction: {Name: "declare_reduction", Required: 3, Params: []Param{
		{"ident", Str}, {"combiner", Fn}, {"initializer", Any}}},
	ReduceInit: {Name: "reduce_init", Required: 1, Params: []Param{{"ident", Str}}},
	ReduceCombine: {Name: "reduce_combine", Required: 3, Params: []Param{
		{"ident", Str}, {"out", Any}, {"in", Any}}},
}

// Arity is the argument counts e takes: from min to max (max < 0 for
// no bound) in steps of step.
func (e Entry) Arity() (min, max, step int) {
	s := &Specs[e]
	if s.Variadic {
		return len(s.Params), -1, len(s.Params)
	}
	return s.Required, len(s.Params), 1
}

// Accepts reports whether n positional arguments fit the entry.
func (e Entry) Accepts(n int) bool {
	min, max, step := e.Arity()
	return n >= min && (max < 0 || n <= max) && (n-min)%step == 0
}

// KindError is the message for argument i of a call to e having the
// type got instead of its parameter's kind.
func (e Entry) KindError(i int, got string) string {
	ps := Specs[e].Params
	p := ps[i%len(ps)] // a variadic entry repeats its parameters
	return fmt.Sprintf("%s() argument '%s' must be %s, not %s", Specs[e].Name, p.Name, p.Kind, got)
}

func (e Entry) String() string { return Specs[e].Name }

// Call builds the generated-code call __omp.e(args...). An argument
// count outside the spec is a bug in the transform: it panics.
func Call(e Entry, args ...minipy.Expr) *minipy.Call {
	if !e.Accepts(len(args)) {
		panic(fmt.Sprintf("ompabi: %s called with %d arguments", e, len(args)))
	}
	return &minipy.Call{
		Fn:   &minipy.Attribute{X: &minipy.Name{ID: Module}, Name: Specs[e].Name},
		Args: args,
	}
}
