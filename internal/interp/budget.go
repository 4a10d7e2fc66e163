package interp

import (
	"fmt"
	"sync/atomic"
	"time"

	"github.com/omp4go/omp4go/internal/minipy"
)

// Budget bounds one execution of tenant-supplied code: a step budget
// (the interpreter's CPU-time proxy), an allocation budget (the boxed
// allocation count stands in for memory), a wall-clock deadline, and
// an optional cancellation channel. The zero value of each field means
// "unlimited". The execution service (internal/serve) arms a budget
// around every run so a runaway program is killed with a typed error
// instead of wedging a worker.
type Budget struct {
	// MaxSteps bounds interpreter steps (statements, expressions and
	// calls across every thread of the program). 0 = unlimited.
	MaxSteps int64
	// MaxAllocs bounds accounted boxed allocations. 0 = unlimited.
	MaxAllocs int64
	// Deadline is the wall-clock cutoff. Zero = none.
	Deadline time.Time
	// Done cancels the execution when it becomes receivable (for
	// example a request context's Done channel). Nil = none.
	Done <-chan struct{}
}

// BudgetError reports a budget violation. It is deliberately not a
// *PyError: except clauses cannot catch it, so a tenant program cannot
// swallow its own kill and keep looping. Pos is the source position of
// the step that observed the violation.
type BudgetError struct {
	// Kind is "steps", "allocs", "deadline" or "canceled".
	Kind string
	Msg  string
	Pos  minipy.Position
}

func (e *BudgetError) Error() string {
	if e.Pos.Line > 0 {
		return fmt.Sprintf("execution budget exceeded (%s): %s (%s)", e.Kind, e.Msg, e.Pos)
	}
	return fmt.Sprintf("execution budget exceeded (%s): %s", e.Kind, e.Msg)
}

// budgetStride is how many interpreter steps a thread runs between
// budget checks: large enough to keep the shared counter off the hot
// path, small enough that kills land within a few thousand steps.
const budgetStride = 64

// budgetState is the armed form of a Budget, shared by every thread of
// the interpreter. killed is sticky: once any thread observes a
// violation, every subsequent check on every thread fails with the
// same kind, so catch-and-retry loops die too.
type budgetState struct {
	maxSteps  int64
	maxAllocs int64
	deadline  time.Time
	done      <-chan struct{}
	steps     atomic.Int64
	allocs    atomic.Int64
	killed    atomic.Pointer[BudgetError]
}

// SetBudget arms (or replaces) the interpreter's execution budget.
// Counters start from zero; pass a fresh budget per run.
func (in *Interp) SetBudget(b Budget) {
	in.budget.Store(&budgetState{
		maxSteps:  b.MaxSteps,
		maxAllocs: b.MaxAllocs,
		deadline:  b.Deadline,
		done:      b.Done,
	})
}

// ClearBudget disarms the budget.
func (in *Interp) ClearBudget() { in.budget.Store(nil) }

// BudgetSteps returns the steps charged against the current budget (0
// when no budget is armed). Flushes happen every budgetStride steps
// per thread, so the value trails the true count slightly.
func (in *Interp) BudgetSteps() int64 {
	if b := in.budget.Load(); b != nil {
		return b.steps.Load()
	}
	return 0
}

// BudgetAllocs returns the boxed allocations charged against the
// current budget (0 when no budget is armed or MaxAllocs is 0).
func (in *Interp) BudgetAllocs() int64 {
	if b := in.budget.Load(); b != nil {
		return b.allocs.Load()
	}
	return 0
}

// kill records the first violation; later racers adopt it so the whole
// program reports one consistent kind.
func (b *budgetState) kill(kind, msg string) *BudgetError {
	e := &BudgetError{Kind: kind, Msg: msg}
	if !b.killed.CompareAndSwap(nil, e) {
		e = b.killed.Load()
	}
	return e
}

// at returns a positioned copy: each thread reports the location it
// was executing when it observed the kill.
func (e *BudgetError) at(pos minipy.Position) *BudgetError {
	return &BudgetError{Kind: e.Kind, Msg: e.Msg, Pos: pos}
}

// Charge bills n steps of compiled code against the execution budget
// and re-checks every limit, reporting a violation at pos. Compiled
// loops (internal/compile) count their back-edges locally and call it
// once per stride, so the budget pointer is loaded only here; without
// an armed budget it does nothing.
func (th *Thread) Charge(n int64, pos minipy.Position) error {
	if b := th.in.budget.Load(); b != nil {
		return b.charge(n, pos)
	}
	return nil
}

// charge adds n steps and re-checks every limit. Called once per
// budgetStride steps per thread.
func (b *budgetState) charge(n int64, pos minipy.Position) error {
	if e := b.killed.Load(); e != nil {
		return e.at(pos)
	}
	steps := b.steps.Add(n)
	if b.maxSteps > 0 && steps > b.maxSteps {
		return b.kill("steps", fmt.Sprintf("step budget of %d exhausted", b.maxSteps)).at(pos)
	}
	if b.maxAllocs > 0 && b.allocs.Load() > b.maxAllocs {
		return b.kill("allocs", fmt.Sprintf("allocation budget of %d exhausted", b.maxAllocs)).at(pos)
	}
	if b.done != nil {
		select {
		case <-b.done:
			return b.kill("canceled", "execution canceled").at(pos)
		default:
		}
	}
	if !b.deadline.IsZero() && time.Now().After(b.deadline) {
		return b.kill("deadline", "wall-clock limit exceeded").at(pos)
	}
	return nil
}
