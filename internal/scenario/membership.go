package scenario

// Interval membership: the identity sets of a timeline phase stored as
// sorted runs of consecutive union identities. The timeline's identity
// rules (joiners take fresh identities upward, leaves the highest honest
// members, creeping compromise the lowest, recovery LIFO) only ever cut a
// set at O(1) points per epoch delta, so a phase's live and compromised
// sets stay a handful of runs however large the population — and the
// dense index of a live member is its rank, found by binary search over
// the runs' prefix counts.

import (
	"sort"

	"anonmix/internal/trace"
)

// span is the half-open identity range [lo, hi).
type span struct{ lo, hi trace.NodeID }

// idSet is a set of union identities stored as sorted, disjoint,
// non-adjacent spans. ends[i] counts the members in spans[:i+1], so the
// rank of a member is a binary search away. The zero value is the empty
// set; sets are immutable once built (operations return new sets).
type idSet struct {
	spans []span
	ends  []int
}

// newIDSet builds a set from spans sorted by lo and pairwise disjoint,
// merging adjacent runs and dropping empty ones.
func newIDSet(spans []span) idSet {
	var s idSet
	for _, sp := range spans {
		s.spans = appendSpan(s.spans, sp)
	}
	s.ends = make([]int, len(s.spans))
	total := 0
	for i, sp := range s.spans {
		total += int(sp.hi - sp.lo)
		s.ends[i] = total
	}
	return s
}

// rangeSet is the set [lo, hi).
func rangeSet(lo, hi trace.NodeID) idSet { return newIDSet([]span{{lo, hi}}) }

// appendSpan appends sp to a sorted span list, coalescing it with the last
// span when they touch.
func appendSpan(out []span, sp span) []span {
	if sp.hi <= sp.lo {
		return out
	}
	if k := len(out) - 1; k >= 0 && out[k].hi == sp.lo {
		out[k].hi = sp.hi
		return out
	}
	return append(out, sp)
}

// len is the number of members.
func (s idSet) len() int {
	if len(s.ends) == 0 {
		return 0
	}
	return s.ends[len(s.ends)-1]
}

// find returns the index of the span containing g, or -1.
func (s idSet) find(g trace.NodeID) int {
	lo, hi := 0, len(s.spans)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if s.spans[m].hi <= g {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if lo < len(s.spans) && s.spans[lo].lo <= g {
		return lo
	}
	return -1
}

// has reports membership of g.
func (s idSet) has(g trace.NodeID) bool { return s.find(g) >= 0 }

// rankOf returns the dense index of g (the number of smaller members) and
// whether g is a member.
func (s idSet) rankOf(g trace.NodeID) (int, bool) {
	i := s.find(g)
	if i < 0 {
		return 0, false
	}
	return s.ends[i] - int(s.spans[i].hi-g), true
}

// at returns the member of dense index d, 0 ≤ d < len(): the inverse of
// rankOf.
func (s idSet) at(d int) trace.NodeID {
	lo, hi := 0, len(s.ends)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if s.ends[m] <= d {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return s.spans[lo].hi - trace.NodeID(s.ends[lo]-d)
}

// members materializes the set, ascending. It is O(len()): only paths
// whose contract takes a slice (adversary and kernel inputs) call it.
func (s idSet) members() []trace.NodeID {
	if s.len() == 0 {
		return nil
	}
	out := make([]trace.NodeID, 0, s.len())
	for _, sp := range s.spans {
		for g := sp.lo; g < sp.hi; g++ {
			out = append(out, g)
		}
	}
	return out
}

// lowest returns the k smallest members, 0 ≤ k ≤ len().
func (s idSet) lowest(k int) idSet {
	var out []span
	for _, sp := range s.spans {
		if k <= 0 {
			break
		}
		take := min(k, int(sp.hi-sp.lo))
		out = append(out, span{sp.lo, sp.lo + trace.NodeID(take)})
		k -= take
	}
	return newIDSet(out)
}

// highest returns the k largest members, 0 ≤ k ≤ len().
func (s idSet) highest(k int) idSet {
	var out []span
	for i := len(s.spans) - 1; i >= 0 && k > 0; i-- {
		sp := s.spans[i]
		take := min(k, int(sp.hi-sp.lo))
		out = append(out, span{sp.hi - trace.NodeID(take), sp.hi})
		k -= take
	}
	for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
		out[i], out[j] = out[j], out[i]
	}
	return newIDSet(out)
}

// union, minus, and intersect are the set algebra of the phase diffs.
func (s idSet) union(t idSet) idSet     { return combine(s, t, func(a, b bool) bool { return a || b }) }
func (s idSet) minus(t idSet) idSet     { return combine(s, t, func(a, b bool) bool { return a && !b }) }
func (s idSet) intersect(t idSet) idSet { return combine(s, t, func(a, b bool) bool { return a && b }) }

// combine sweeps the boundaries of a and b once, keeping each elementary
// segment whose (in a, in b) membership satisfies keep. keep(false, false)
// must be false.
func combine(a, b idSet, keep func(inA, inB bool) bool) idSet {
	as, bs := a.spans, b.spans
	var out []span
	i, j := 0, 0
	var cur trace.NodeID
	switch {
	case len(as) > 0 && len(bs) > 0:
		cur = min(as[0].lo, bs[0].lo)
	case len(as) > 0:
		cur = as[0].lo
	case len(bs) > 0:
		cur = bs[0].lo
	}
	for {
		for i < len(as) && as[i].hi <= cur {
			i++
		}
		for j < len(bs) && bs[j].hi <= cur {
			j++
		}
		if i == len(as) && j == len(bs) {
			break
		}
		// The next boundary after cur: the end of the span cur lies in, or
		// the start of the next one.
		inA := i < len(as) && as[i].lo <= cur
		inB := j < len(bs) && bs[j].lo <= cur
		next := trace.NodeID(-1)
		if i < len(as) {
			next = as[i].lo
			if inA {
				next = as[i].hi
			}
		}
		if j < len(bs) {
			nb := bs[j].lo
			if inB {
				nb = bs[j].hi
			}
			if next < 0 || nb < next {
				next = nb
			}
		}
		if keep(inA, inB) {
			out = appendSpan(out, span{cur, next})
		}
		cur = next
	}
	return newIDSet(out)
}

// compromiseRuns compresses a compromise order (the first element
// compromised first) into runs of consecutive ascending identities,
// preserving the order: popping a run's members from hi downward replays
// the order backward, which is exactly LIFO recovery.
func compromiseRuns(ids []trace.NodeID) []span {
	var runs []span
	for _, g := range ids {
		if k := len(runs) - 1; k >= 0 && runs[k].hi == g {
			runs[k].hi++
			continue
		}
		runs = append(runs, span{g, g + 1})
	}
	return runs
}

// popRuns removes the k most recently compromised identities from the top
// of a compromise stack (k ≤ its size), returning the shortened stack and
// the removed identities as a set.
func popRuns(stack []span, k int) ([]span, idSet) {
	var popped []span
	for k > 0 {
		top := &stack[len(stack)-1]
		take := min(k, int(top.hi-top.lo))
		popped = append(popped, span{top.hi - trace.NodeID(take), top.hi})
		top.hi -= trace.NodeID(take)
		if top.hi == top.lo {
			stack = stack[:len(stack)-1]
		}
		k -= take
	}
	sort.Slice(popped, func(i, j int) bool { return popped[i].lo < popped[j].lo })
	return stack, newIDSet(popped)
}
