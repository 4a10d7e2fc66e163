package directive

import "strings"

// allowedClauses lists, per directive, which clause kinds conform to
// the OpenMP 3.0 specification (with the OMP4Py extensions noted in
// directive.go).
var allowedClauses = map[Name][]ClauseKind{
	NameParallel: {ClauseIf, ClauseNumThreads, ClauseDefault, ClausePrivate,
		ClauseFirstprivate, ClauseShared, ClauseCopyin, ClauseReduction},
	NameFor: {ClausePrivate, ClauseFirstprivate, ClauseLastprivate,
		ClauseReduction, ClauseSchedule, ClauseCollapse, ClauseOrdered, ClauseNowait},
	NameParallelFor: {ClauseIf, ClauseNumThreads, ClauseDefault, ClausePrivate,
		ClauseFirstprivate, ClauseLastprivate, ClauseShared, ClauseCopyin,
		ClauseReduction, ClauseSchedule, ClauseCollapse, ClauseOrdered},
	NameSections: {ClausePrivate, ClauseFirstprivate, ClauseLastprivate,
		ClauseReduction, ClauseNowait},
	NameParallelSections: {ClauseIf, ClauseNumThreads, ClauseDefault,
		ClausePrivate, ClauseFirstprivate, ClauseLastprivate, ClauseShared,
		ClauseCopyin, ClauseReduction},
	NameSection:       {},
	NameSingle:        {ClausePrivate, ClauseFirstprivate, ClauseCopyprivate, ClauseNowait},
	NameMaster:        {},
	NameCritical:      {ClauseCriticalName},
	NameBarrier:       {},
	NameAtomic:        {ClauseAtomicOp},
	NameFlush:         {ClauseFlushList},
	NameOrdered:       {},
	NameThreadprivate: {ClauseFlushList},
	NameTask: {ClauseIf, ClauseFinal, ClauseUntied, ClauseDefault,
		ClauseMergeable, ClausePrivate, ClauseFirstprivate, ClauseShared,
		ClauseDepend},
	NameTaskwait: {},
	NameTaskloop: {ClauseIf, ClauseFinal, ClauseUntied, ClauseDefault,
		ClauseMergeable, ClausePrivate, ClauseFirstprivate, ClauseShared,
		ClauseGrainsize, ClauseNumTasks, ClauseNogroup},
	NameTaskgroup:        {},
	NameDeclareReduction: {},
}

// clauseSet is a set of clause kinds, one bit per kind.
type clauseSet uint32

// numClauseKinds is the number of clause kinds; each has a bit in a
// clauseSet.
const numClauseKinds = int(ClauseAtomicOp) + 1

var _ = [32 - numClauseKinds]struct{}{} // every kind fits a clauseSet

func setOf(kinds ...ClauseKind) clauseSet {
	var s clauseSet
	for _, k := range kinds {
		s |= 1 << k
	}
	return s
}

func (s clauseSet) has(k ClauseKind) bool { return s>>k&1 != 0 }

// allowedSets is allowedClauses as sets.
var allowedSets = func() map[Name]clauseSet {
	m := make(map[Name]clauseSet, len(allowedClauses))
	for name, kinds := range allowedClauses {
		m[name] = setOf(kinds...)
	}
	return m
}()

// uniqueClauses may appear at most once per directive.
var uniqueClauses = setOf(ClauseIf, ClauseNumThreads, ClauseDefault, ClauseSchedule,
	ClauseCollapse, ClauseNowait, ClauseOrdered, ClauseFinal, ClauseUntied,
	ClauseMergeable, ClauseGrainsize, ClauseNumTasks, ClauseNogroup)

// dataSharingClauses place a variable into a sharing class; a variable
// may appear in at most one of them (firstprivate+lastprivate being
// the one conforming combination on worksharing constructs).
var dataSharingClauses = setOf(ClausePrivate, ClauseFirstprivate, ClauseLastprivate,
	ClauseShared, ClauseReduction)

func validate(d *Directive, raw string) error {
	allowed, ok := allowedSets[d.Name]
	if !ok {
		return errf(raw, 0, "unknown directive %q", d.Name)
	}
	var seen [numClauseKinds]int
	var sharing sharingAttrs
	for _, c := range d.Clauses {
		if !allowed.has(c.Kind) {
			return errf(raw, 0, "clause %s is not valid on directive %q (valid: %s)",
				c.Kind, d.Name, fmtList(allowedClauses[d.Name]))
		}
		seen[c.Kind]++
		if uniqueClauses.has(c.Kind) && seen[c.Kind] > 1 {
			return errf(raw, 0, "clause %s may appear at most once on %q", c.Kind, d.Name)
		}
		if dataSharingClauses.has(c.Kind) {
			for _, v := range c.Vars {
				if prev, dup := sharing.first(v); dup {
					if okPair(prev, c.Kind) {
						continue
					}
					return errf(raw, 0,
						"variable %q appears in both %s and %s clauses", v, prev, c.Kind)
				}
				sharing.add(v, c.Kind)
			}
		}
		if c.Kind == ClauseReduction && !IsBuiltinReductionOp(c.Op) && !isIdent(c.Op) {
			return errf(raw, 0, "invalid reduction operator %q", c.Op)
		}
	}
	// Cross-clause rules.
	if d.Name == NameTaskloop && d.Has(ClauseGrainsize) && d.Has(ClauseNumTasks) {
		return errf(raw, 0, "grainsize and num_tasks are mutually exclusive on taskloop")
	}
	if d.Name == NameFor || d.Name == NameParallelFor {
		if cl := d.Find(ClauseCollapse); cl != nil {
			if ord := d.Find(ClauseOrdered); ord != nil {
				return errf(raw, 0, "ordered is not permitted together with collapse")
			}
		}
	}
	if cl := d.Find(ClauseCriticalName); cl != nil && cl.Expr != "" {
		if !isIdent(strings.TrimSpace(cl.Expr)) {
			return errf(raw, 0, "critical section name %q is not a valid identifier", cl.Expr)
		}
	}
	return nil
}

// sharingAttrs records the data-sharing clause each variable of a
// directive first appears in. The few variables a directive usually
// names are scanned linearly; past len(small) a map keeps hostile
// directives with thousands of variables linear.
type sharingAttrs struct {
	n     int
	small [8]struct {
		v string
		k ClauseKind
	}
	big map[string]ClauseKind
}

func (s *sharingAttrs) first(v string) (ClauseKind, bool) {
	if s.big != nil {
		k, ok := s.big[v]
		return k, ok
	}
	for _, e := range s.small[:s.n] {
		if e.v == v {
			return e.k, true
		}
	}
	return 0, false
}

func (s *sharingAttrs) add(v string, k ClauseKind) {
	if s.big == nil && s.n < len(s.small) {
		s.small[s.n].v, s.small[s.n].k = v, k
		s.n++
		return
	}
	if s.big == nil {
		s.big = make(map[string]ClauseKind, 2*len(s.small))
		for _, e := range s.small {
			s.big[e.v] = e.k
		}
	}
	s.big[v] = k
}

// okPair reports whether two data-sharing attributes may legally apply
// to the same variable on one construct.
func okPair(a, b ClauseKind) bool {
	return (a == ClauseFirstprivate && b == ClauseLastprivate) ||
		(a == ClauseLastprivate && b == ClauseFirstprivate)
}
