package rt

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/omp4go/omp4go/internal/ompt"
)

// TestUndeferredErrorDeliveredOnce is the ISSUE's headline bugfix: an
// undeferred (if(false)) task's error returns from SubmitTask and is
// NOT delivered a second time at the region join.
func TestUndeferredErrorDeliveredOnce(t *testing.T) {
	sentinel := errors.New("undeferred boom")
	for _, l := range bothLayers {
		for _, sched := range bothScheds {
			r := newSchedRuntime(l, sched)
			var submitErr, waitErr error
			regionErr := inSingle(t, r, func(c *Context) error {
				submitErr = c.SubmitTask(TaskOpts{IfSet: true, If: false}, func(*Context) error {
					return sentinel
				})
				waitErr = c.TaskWait()
				return nil
			})
			if !errors.Is(submitErr, sentinel) {
				t.Fatalf("%v/%v: SubmitTask returned %v, want %v", l, sched, submitErr, sentinel)
			}
			if waitErr != nil {
				t.Fatalf("%v/%v: TaskWait re-delivered the error: %v", l, sched, waitErr)
			}
			if regionErr != nil {
				t.Fatalf("%v/%v: region join re-delivered the error: %v", l, sched, regionErr)
			}
		}
	}
}

// TestTaskWaitSurfacesChildError is the second satellite fix: a
// deferred child's failure surfaces at the next taskwait instead of
// being swallowed (and is not delivered again at the region join).
func TestTaskWaitSurfacesChildError(t *testing.T) {
	sentinel := errors.New("deferred boom")
	for _, l := range bothLayers {
		for _, sched := range bothScheds {
			r := newSchedRuntime(l, sched)
			var waitErr error
			regionErr := inSingle(t, r, func(c *Context) error {
				if err := c.SubmitTask(TaskOpts{}, func(*Context) error {
					return sentinel
				}); err != nil {
					return err
				}
				waitErr = c.TaskWait()
				return nil
			})
			if !errors.Is(waitErr, sentinel) {
				t.Fatalf("%v/%v: TaskWait returned %v, want %v", l, sched, waitErr, sentinel)
			}
			if regionErr != nil {
				t.Fatalf("%v/%v: region join re-delivered the error: %v", l, sched, regionErr)
			}
		}
	}
}

// TestRegionJoinStillCatchesUnwaitedErrors: without a taskwait, the
// deferred child's error still reaches the region join — the fix
// removes double delivery, not the safety net.
func TestRegionJoinStillCatchesUnwaitedErrors(t *testing.T) {
	sentinel := errors.New("unwaited boom")
	for _, l := range bothLayers {
		r := newTestRuntime(l)
		regionErr := inSingle(t, r, func(c *Context) error {
			return c.SubmitTask(TaskOpts{}, func(*Context) error {
				return sentinel
			})
		})
		if !errors.Is(regionErr, sentinel) {
			t.Fatalf("%v: region join returned %v, want %v", l, regionErr, sentinel)
		}
	}
}

// TestNestedTaskwaitErrorPropagation: a grandchild's failure surfaces
// at the child's taskwait; the child forwards it, and it reaches the
// outer taskwait exactly once — under both sync layers and both
// schedulers.
func TestNestedTaskwaitErrorPropagation(t *testing.T) {
	sentinel := errors.New("grandchild boom")
	for _, l := range bothLayers {
		for _, sched := range bothScheds {
			r := newSchedRuntime(l, sched)
			var outerErr error
			regionErr := inSingle(t, r, func(c *Context) error {
				if err := c.SubmitTask(TaskOpts{}, func(cc *Context) error {
					if err := cc.SubmitTask(TaskOpts{}, func(*Context) error {
						return sentinel
					}); err != nil {
						return err
					}
					return cc.TaskWait() // inner taskwait sees the grandchild
				}); err != nil {
					return err
				}
				outerErr = c.TaskWait()
				return nil
			})
			if !errors.Is(outerErr, sentinel) {
				t.Fatalf("%v/%v: outer TaskWait returned %v, want %v", l, sched, outerErr, sentinel)
			}
			if regionErr != nil {
				t.Fatalf("%v/%v: region join re-delivered the error: %v", l, sched, regionErr)
			}
		}
	}
}

// TestPanicInDeferredTask: the recover converts a deferred task's
// panic into an error surfaced at taskwait.
func TestPanicInDeferredTask(t *testing.T) {
	for _, l := range bothLayers {
		r := newTestRuntime(l)
		var waitErr error
		regionErr := inSingle(t, r, func(c *Context) error {
			if err := c.SubmitTask(TaskOpts{}, func(*Context) error {
				panic("task exploded")
			}); err != nil {
				return err
			}
			waitErr = c.TaskWait()
			return nil
		})
		if waitErr == nil || !strings.Contains(waitErr.Error(), "panic in task") {
			t.Fatalf("%v: TaskWait returned %v, want panic-in-task error", l, waitErr)
		}
		if regionErr != nil {
			t.Fatalf("%v: region join re-delivered the panic: %v", l, regionErr)
		}
	}
}

// TestPanicInUndeferredTask: an undeferred task's panic returns from
// SubmitTask as an error (not a process-killing unwind) and is not
// duplicated downstream.
func TestPanicInUndeferredTask(t *testing.T) {
	for _, l := range bothLayers {
		r := newTestRuntime(l)
		var submitErr, waitErr error
		regionErr := inSingle(t, r, func(c *Context) error {
			submitErr = c.SubmitTask(TaskOpts{IfSet: true, If: false}, func(*Context) error {
				panic("undeferred exploded")
			})
			waitErr = c.TaskWait()
			return nil
		})
		if submitErr == nil || !strings.Contains(submitErr.Error(), "panic in task") {
			t.Fatalf("%v: SubmitTask returned %v, want panic-in-task error", l, submitErr)
		}
		if waitErr != nil {
			t.Fatalf("%v: TaskWait re-delivered the panic: %v", l, waitErr)
		}
		if regionErr != nil {
			t.Fatalf("%v: region join re-delivered the panic: %v", l, regionErr)
		}
	}
}

// TestTaskErrorCapSixteen: a flood of failing tasks stores at most
// maxTaskErrs errors; the joined error reports the first failure plus
// maxTaskErrs-1 extras, and the overflow is dropped, not deadlocked.
func TestTaskErrorCapSixteen(t *testing.T) {
	if msg := taskErrorChain(t, newTestRuntime(LayerAtomic)); msg != "" {
		t.Fatal(msg)
	}
}

// TestTaskErrorOrderStress repeats TestTaskErrorCapSixteen: a task
// delivers its error before it releases its dependence successors, so
// a successor's error can never arrive first.
func TestTaskErrorOrderStress(t *testing.T) {
	r := newTestRuntime(LayerAtomic)
	for i := 0; i < 200; i++ {
		if msg := taskErrorChain(t, r); msg != "" {
			t.Fatalf("run %d: %s", i, msg)
		}
	}
}

// holdRelease is a tool that holds the thread releasing the second
// dependence-resolved task inside the release until the first one
// has left its pending counts, so after its error was delivered.
type holdRelease struct {
	mu       sync.Mutex
	resolved []int64 // ids of the released tasks, in release order
	firstOut chan struct{}
}

func (h *holdRelease) Emit(rec ompt.Record) {
	if rec.Kind != ompt.EvTaskDependResolved {
		return
	}
	h.mu.Lock()
	h.resolved = append(h.resolved, rec.A)
	n := len(h.resolved)
	h.mu.Unlock()
	if n == 2 {
		select {
		case <-h.firstOut:
		case <-time.After(5 * time.Second):
		}
	}
}

// TestTaskErrorDeliveredBeforeRelease: a failing task delivers its
// error before it releases its dependence successors, so the error of
// a successor that fails at once cannot arrive first. Two successors
// wait on the failing task; the tool keeps the releasing thread inside
// the second release until a teammate has run the first to completion.
func TestTaskErrorDeliveredBeforeRelease(t *testing.T) {
	r := newTestRuntime(LayerAtomic)
	h := &holdRelease{firstOut: make(chan struct{})}
	r.SetTool(h)
	var once sync.Once
	taskPendingDropHook = func(tk *task) {
		h.mu.Lock()
		first := len(h.resolved) > 0 && tk.id == h.resolved[0]
		h.mu.Unlock()
		if first {
			once.Do(func() { close(h.firstOut) })
		}
	}
	defer func() { taskPendingDropHook = nil }()
	var waitErr error
	regionErr := inSingle(t, r, func(c *Context) error {
		for i, dep := range [][]Dep{Out("e"), In("e"), In("e")} {
			i := i
			if err := c.SubmitTask(TaskOpts{Depends: dep}, func(*Context) error {
				return fmt.Errorf("fail %d", i)
			}); err != nil {
				return err
			}
		}
		waitErr = c.TaskWait()
		return nil
	})
	if regionErr != nil {
		t.Fatalf("region: %v", regionErr)
	}
	var te *teamError
	if !errors.As(waitErr, &te) || te.first.Error() != "fail 0" {
		t.Fatalf("TaskWait returned %v, want fail 0 first", waitErr)
	}
}

// taskErrorChain runs forty failing tasks serialized by an inout
// chain and checks what TaskWait reports; it returns what is wrong, or
// "".
func taskErrorChain(t *testing.T, r *Runtime) string {
	const failing = 40
	var waitErr error
	regionErr := inSingle(t, r, func(c *Context) error {
		for i := 0; i < failing; i++ {
			i := i
			// A dependence chain serializes the tasks so error arrival
			// order (and thus the "first" error) is deterministic.
			if err := c.SubmitTask(TaskOpts{Depends: InOut("e")}, func(*Context) error {
				return fmt.Errorf("fail %d", i)
			}); err != nil {
				return err
			}
		}
		waitErr = c.TaskWait()
		return nil
	})
	if regionErr != nil {
		return fmt.Sprintf("region join re-delivered task errors: %v", regionErr)
	}
	var te *teamError
	if !errors.As(waitErr, &te) {
		return fmt.Sprintf("TaskWait returned %T (%v), want *teamError", waitErr, waitErr)
	}
	if te.extra != maxTaskErrs-1 {
		return fmt.Sprintf("teamError extra = %d, want %d (cap %d)", te.extra, maxTaskErrs-1, maxTaskErrs)
	}
	if te.first.Error() != "fail 0" {
		return fmt.Sprintf("first error = %v, want fail 0", te.first)
	}
	return ""
}

// TestTaskWaitNoChildrenReturnsPendingErrors: taskwait with zero live
// children still drains errors already recorded by completed ones.
func TestTaskWaitNoChildrenReturnsPendingErrors(t *testing.T) {
	sentinel := errors.New("already done boom")
	r := newTestRuntime(LayerAtomic)
	var firstWait, secondWait error
	regionErr := inSingle(t, r, func(c *Context) error {
		if err := c.SubmitTask(TaskOpts{}, func(*Context) error {
			return sentinel
		}); err != nil {
			return err
		}
		firstWait = c.TaskWait()
		secondWait = c.TaskWait() // nothing left: error must not repeat
		return nil
	})
	if !errors.Is(firstWait, sentinel) {
		t.Fatalf("first TaskWait returned %v, want %v", firstWait, sentinel)
	}
	if secondWait != nil {
		t.Fatalf("second TaskWait re-delivered the error: %v", secondWait)
	}
	if regionErr != nil {
		t.Fatalf("region join re-delivered the error: %v", regionErr)
	}
}
