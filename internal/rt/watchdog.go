package rt

import (
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"github.com/omp4go/omp4go/internal/ompt"
)

// The stall watchdog samples in-flight regions and flags
// synchronization points that fail to complete within a threshold: a
// barrier where some members have been waiting longer than the
// threshold while others never arrived, or a taskwait stuck on
// outstanding tasks. The diagnosis — who arrived, who is missing,
// what the deques hold — is exactly what a hung fork-join program
// needs and a goroutine dump does not give. Activated by
// OMP4GO_WATCHDOG=<duration> or Runtime.StartWatchdog.

// watchdogOut receives stall reports (a package variable so tests can
// capture the output).
var watchdogOut io.Writer = os.Stderr

// StallMember describes one team member waiting at the stalled
// synchronization point.
type StallMember struct {
	GTID      int32 `json:"gtid"`
	ThreadNum int   `json:"thread_num"`
	// Wait is the wait kind ("barrier", "taskwait", "taskgroup",
	// "depend"); WaitFor names what the member waits on when the wait
	// site published a detail string.
	Wait    string `json:"wait,omitempty"`
	WaitFor string `json:"wait_for,omitempty"`
	WaitNS  int64  `json:"wait_ns"`
}

// StallReport is one watchdog finding: a synchronization point that
// has not completed within the threshold.
type StallReport struct {
	RegionID    int32         `json:"region_id"`
	Kind        string        `json:"kind"` // "barrier" or "taskwait"
	Waiting     []StallMember `json:"waiting"`
	Missing     []int32       `json:"missing_gtids"` // members not yet at a wait point
	DequeDepths []int         `json:"deque_depths"`
	Outstanding int64         `json:"outstanding_tasks"`
	Threshold   time.Duration `json:"threshold_ns"`
}

func (s StallReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "omp4go watchdog: region %d %s stalled > %v:", s.RegionID, s.Kind, s.Threshold)
	for _, m := range s.Waiting {
		fmt.Fprintf(&b, " gtid %d (thread %d) waiting %v", m.GTID, m.ThreadNum,
			time.Duration(m.WaitNS).Round(time.Millisecond))
		if m.Wait != "" {
			fmt.Fprintf(&b, " at %s", m.Wait)
		}
		if m.WaitFor != "" {
			fmt.Fprintf(&b, " on %s", m.WaitFor)
		}
		b.WriteString(";")
	}
	if len(s.Missing) > 0 {
		fmt.Fprintf(&b, " missing gtids %v (still executing or blocked outside the runtime);", s.Missing)
	}
	fmt.Fprintf(&b, " %d outstanding task(s), deque depths %v", s.Outstanding, s.DequeDepths)
	return b.String()
}

// watchdog is the sampler goroutine's state.
type watchdog struct {
	rt        *Runtime
	threshold time.Duration
	stop      chan struct{}
	done      chan struct{}

	// reported dedupes by region and arrival signature: a stall is
	// re-reported only when its shape changes (another thread arrives,
	// a task drains) or the region completes and a new one stalls.
	reported map[int32]string
}

// StartWatchdog arms the stall watchdog with the given threshold,
// enabling live introspection as a side effect. A second call
// replaces the previous watchdog.
func (r *Runtime) StartWatchdog(threshold time.Duration) {
	if threshold <= 0 {
		return
	}
	r.ensureObs()
	w := &watchdog{
		rt:        r,
		threshold: threshold,
		stop:      make(chan struct{}),
		done:      make(chan struct{}),
		reported:  make(map[int32]string),
	}
	r.wdMu.Lock()
	prev := r.wd
	r.wd = w
	r.wdMu.Unlock()
	if prev != nil {
		prev.halt()
	}
	go w.loop()
}

// StopWatchdog disarms the stall watchdog. Safe to call when none is
// armed.
func (r *Runtime) StopWatchdog() {
	r.wdMu.Lock()
	w := r.wd
	r.wd = nil
	r.wdMu.Unlock()
	if w != nil {
		w.halt()
	}
}

func (w *watchdog) halt() {
	close(w.stop)
	<-w.done
}

func (w *watchdog) loop() {
	defer close(w.done)
	// Sampling at a quarter of the threshold bounds detection latency
	// to ~1.25x the threshold while keeping the sampler cheap.
	tick := w.threshold / 4
	if tick < 5*time.Millisecond {
		tick = 5 * time.Millisecond
	}
	ticker := time.NewTicker(tick)
	defer ticker.Stop()
	for {
		select {
		case <-w.stop:
			return
		case <-ticker.C:
			w.sample()
		}
	}
}

// sample inspects every in-flight region for members stuck past the
// threshold.
func (w *watchdog) sample() {
	o := w.rt.obs.Load()
	if o == nil {
		return
	}
	o.mu.Lock()
	teams := make([]*Team, 0, len(o.teams))
	live := make(map[int32]bool, len(o.teams))
	for id, t := range o.teams {
		teams = append(teams, t)
		live[id] = true
	}
	o.mu.Unlock()
	// Forget completed regions so their ids (which can recur via
	// regionSeq wrap in very long runs) do not suppress new reports.
	for id := range w.reported {
		if !live[id] {
			delete(w.reported, id)
		}
	}
	now := ompt.Now()
	thresholdNS := w.threshold.Nanoseconds()
	for _, t := range teams {
		rep, ok := w.diagnose(t, now, thresholdNS)
		if !ok {
			continue
		}
		sig := stallSignature(rep)
		if w.reported[t.regionID] == sig {
			continue
		}
		w.reported[t.regionID] = sig
		// Printed first: whoever sees the report in StallReports can
		// rely on the text being out.
		fmt.Fprintln(watchdogOut, rep.String())
		o.addStall(rep)
		// A stall is exactly what the flight recorder exists for:
		// flush the recent-event ring and introspection history to a
		// post-mortem dump (deduped with the report itself — only a
		// changed stall shape triggers another dump).
		if fr := w.rt.flight.Load(); fr != nil {
			if path, err := fr.Dump("stall"); err == nil {
				fmt.Fprintf(watchdogOut, "omp4go watchdog: flight dump written to %s\n", path)
			}
		}
	}
}

// diagnose builds a stall report for the team if any member has been
// waiting at a synchronization point longer than the threshold.
func (w *watchdog) diagnose(t *Team, now, thresholdNS int64) (StallReport, bool) {
	var waiting []StallMember
	var missing []int32
	kind := ""
	stalled := false
	for _, m := range t.members {
		if m == nil {
			continue
		}
		k := m.waitKind.Load()
		if k == waitNone {
			missing = append(missing, m.gtid)
			continue
		}
		waitNS := now - m.waitSince.Load()
		sm := StallMember{GTID: m.gtid, ThreadNum: m.num,
			Wait: waitKindString(k), WaitNS: waitNS}
		if d := m.waitDetail.Load(); d != nil {
			sm.WaitFor = *d
		}
		waiting = append(waiting, sm)
		if waitNS >= thresholdNS {
			stalled = true
			if kind == "" {
				kind = waitKindString(k)
			}
		}
	}
	if !stalled {
		return StallReport{}, false
	}
	return StallReport{
		RegionID:    t.regionID,
		Kind:        kind,
		Waiting:     waiting,
		Missing:     missing,
		DequeDepths: t.sched.depths(),
		Outstanding: t.outstanding.Load(),
		Threshold:   w.threshold,
	}, true
}

// stallSignature identifies a stall's shape: the set of waiting and
// missing gtids. A report repeats only when the shape changes.
func stallSignature(rep StallReport) string {
	ids := make([]int, 0, len(rep.Waiting)+len(rep.Missing))
	for _, m := range rep.Waiting {
		ids = append(ids, int(m.GTID))
	}
	sort.Ints(ids)
	var b strings.Builder
	b.WriteString(rep.Kind)
	for _, id := range ids {
		b.WriteString(" w")
		b.WriteString(itoa(id))
	}
	miss := make([]int, 0, len(rep.Missing))
	for _, id := range rep.Missing {
		miss = append(miss, int(id))
	}
	sort.Ints(miss)
	for _, id := range miss {
		b.WriteString(" m")
		b.WriteString(itoa(id))
	}
	return b.String()
}
