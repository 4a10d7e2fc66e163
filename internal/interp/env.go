package interp

import "sync"

// Cell is one variable binding. Cells are shared between a scope and
// the closures that capture it, giving Python's nonlocal semantics.
// Cells created before a parallel region are read (and, via nonlocal,
// written) by every team thread.
type Cell struct {
	v   Value
	set bool
}

// Get returns the cell's value.
func (c *Cell) Get() (Value, bool) { return c.v, c.set }

// SetValue stores v.
func (c *Cell) SetValue(v Value) { c.v = v; c.set = true }

// Env is a map-based lexical environment: the deliberate slowness of
// the Pure mode. Each function call allocates a fresh Env whose cells
// hold the function's locals; lookups walk the parent chain.
//
// Module-level (global) environments are accessed concurrently by
// team threads and guard their map with a mutex; function-local
// environments are single-owner at creation time and share cells (not
// the map) with inner functions, so they stay lock-free.
type Env struct {
	vars   map[string]*Cell
	parent *Env
	shared bool
	mu     sync.Mutex
}

// NewEnv creates a function-local environment under parent.
func NewEnv(parent *Env) *Env {
	return &Env{vars: make(map[string]*Cell), parent: parent}
}

// Define creates (or returns) the local cell for name in this env.
func (e *Env) Define(name string) *Cell {
	if e.shared {
		e.mu.Lock()
		defer e.mu.Unlock()
	}
	if c, ok := e.vars[name]; ok {
		return c
	}
	c := &Cell{}
	e.vars[name] = c
	return c
}

// DefineValue creates the cell and assigns v.
func (e *Env) DefineValue(name string, v Value) *Cell {
	c := e.Define(name)
	c.SetValue(v)
	return c
}

// Lookup finds the cell for name in this env only.
func (e *Env) Lookup(name string) (*Cell, bool) {
	if e.shared {
		e.mu.Lock()
		defer e.mu.Unlock()
	}
	c, ok := e.vars[name]
	return c, ok
}

// Resolve walks the lexical chain for name.
func (e *Env) Resolve(name string) (*Cell, bool) {
	for env := e; env != nil; env = env.parent {
		if c, ok := env.Lookup(name); ok {
			return c, true
		}
	}
	return nil, false
}
