package scenario

// The reference model of the timeline membership schedule: the
// bool-array/map implementation of computePhases, the phase-diff churn
// schedule and the sender pool that the interval form replaced, kept so
// the interval form can be checked against it member for member. The property
// test drives both over seeded random timelines; FuzzTimelineMembership
// lets the fuzzer pick the timelines.

import (
	"errors"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"anonmix/internal/simnet"
	"anonmix/internal/stats"
	"anonmix/internal/trace"
)

// refPhase is one phase of the reference schedule, fully materialized.
type refPhase struct {
	epoch     Epoch
	live      []trace.NodeID
	comp      []trace.NodeID
	denseComp []trace.NodeID
	denseOf   map[trace.NodeID]int
	compSet   map[trace.NodeID]bool
}

// refComputePhases is the reference computePhases: one bool per union
// identity, a compromised-set map, and an explicit compromise-order list.
func refComputePhases(n int, baseComp []trace.NodeID, timeline []Epoch) ([]refPhase, error) {
	total := n
	for _, e := range timeline {
		total += e.Join
	}
	live := make([]bool, total)
	for v := 0; v < n; v++ {
		live[v] = true
	}
	compSet := make(map[trace.NodeID]bool, len(baseComp))
	compOrder := append([]trace.NodeID(nil), baseComp...)
	for _, id := range baseComp {
		compSet[id] = true
	}
	next := trace.NodeID(n)
	phases := make([]refPhase, 0, len(timeline))
	for i, e := range timeline {
		for j := 0; j < e.Join; j++ {
			live[next] = true
			next++
		}
		leaveCur := int(next) - 1
		for j := 0; j < e.Leave; j++ {
			for leaveCur >= 0 && !(live[leaveCur] && !compSet[trace.NodeID(leaveCur)]) {
				leaveCur--
			}
			if leaveCur < 0 {
				return nil, fmt.Errorf("%w: epoch %d: no honest member left to leave", ErrBadConfig, i)
			}
			live[leaveCur] = false
		}
		compCur := 0
		for j := 0; j < e.Compromise; j++ {
			for compCur < int(next) && !(live[compCur] && !compSet[trace.NodeID(compCur)]) {
				compCur++
			}
			if compCur >= int(next) {
				return nil, fmt.Errorf("%w: epoch %d: no honest member left to compromise", ErrBadConfig, i)
			}
			compSet[trace.NodeID(compCur)] = true
			compOrder = append(compOrder, trace.NodeID(compCur))
		}
		for j := 0; j < e.Recover; j++ {
			if len(compOrder) == 0 {
				return nil, fmt.Errorf("%w: epoch %d: no compromised node left to recover", ErrBadConfig, i)
			}
			v := compOrder[len(compOrder)-1]
			compOrder = compOrder[:len(compOrder)-1]
			delete(compSet, v)
		}
		p := refPhase{
			epoch:   e,
			denseOf: make(map[trace.NodeID]int),
			compSet: make(map[trace.NodeID]bool, len(compSet)),
		}
		for g := 0; g < int(next); g++ {
			if !live[g] {
				continue
			}
			id := trace.NodeID(g)
			p.denseOf[id] = len(p.live)
			p.live = append(p.live, id)
			if compSet[id] {
				p.comp = append(p.comp, id)
				p.denseComp = append(p.denseComp, trace.NodeID(p.denseOf[id]))
				p.compSet[id] = true
			}
		}
		if len(p.live) < 2 {
			return nil, fmt.Errorf("%w: epoch %d leaves %d live nodes (need ≥ 2)", ErrBadConfig, i, len(p.live))
		}
		if len(p.comp) >= len(p.live) {
			return nil, fmt.Errorf("%w: epoch %d compromises the whole population (%d of %d)",
				ErrBadConfig, i, len(p.comp), len(p.live))
		}
		phases = append(phases, p)
	}
	return phases, nil
}

// refChurnSchedule is the reference testbed schedule: a scan of the union
// space for the absent identities and map lookups for each boundary diff.
func refChurnSchedule(phases []refPhase, totalIDs int, T []uint64) ([]trace.NodeID, []simnet.ChurnEvent) {
	p0 := &phases[0]
	var down []trace.NodeID
	for g := 0; g < totalIDs; g++ {
		if _, live := p0.denseOf[trace.NodeID(g)]; !live {
			down = append(down, trace.NodeID(g))
		}
	}
	var churn []simnet.ChurnEvent
	for e := 1; e < len(phases); e++ {
		prev, cur := &phases[e-1], &phases[e]
		at := T[e]
		for _, g := range cur.live {
			if _, was := prev.denseOf[g]; !was {
				churn = append(churn, simnet.ChurnEvent{Time: at, Kind: simnet.ChurnJoin, Node: g})
			}
		}
		for _, g := range prev.comp {
			if !cur.compSet[g] {
				churn = append(churn, simnet.ChurnEvent{Time: at, Kind: simnet.ChurnRecover, Node: g})
			}
		}
		for _, g := range cur.comp {
			if !prev.compSet[g] {
				churn = append(churn, simnet.ChurnEvent{Time: at, Kind: simnet.ChurnCompromise, Node: g})
			}
		}
		for _, g := range prev.live {
			if _, still := cur.denseOf[g]; !still {
				churn = append(churn, simnet.ChurnEvent{Time: at, Kind: simnet.ChurnLeave, Node: g})
			}
		}
	}
	return down, churn
}

// refSenderPool is the reference sender pool: the ascending union of every
// phase's members, filtered to those live in every phase that sends rounds.
func refSenderPool(phases []refPhase) []trace.NodeID {
	seen := map[trace.NodeID]bool{}
	var union []trace.NodeID
	for i := range phases {
		for _, g := range phases[i].live {
			if !seen[g] {
				seen[g] = true
				union = append(union, g)
			}
		}
	}
	sort.Slice(union, func(i, j int) bool { return union[i] < union[j] })
	var pool []trace.NodeID
	for _, g := range union {
		ok := true
		for i := range phases {
			if phases[i].epoch.Rounds == 0 {
				continue
			}
			if _, live := phases[i].denseOf[g]; !live {
				ok = false
				break
			}
		}
		if ok {
			pool = append(pool, g)
		}
	}
	return pool
}

// checkMembership compares the interval schedule with the reference on one
// timeline: the error (class and message), each phase's sizes, members,
// dense compromised set and rank/at round trip, the testbed's churn
// schedule, and the sender pool. It returns the shared error, if any.
func checkMembership(t *testing.T, n int, baseComp []trace.NodeID, timeline []Epoch) error {
	t.Helper()
	ref, refErr := refComputePhases(n, baseComp, timeline)
	got, err := computePhases(n, compromiseRuns(baseComp), timeline)
	desc := fmt.Sprintf("n=%d base=%v timeline=%+v", n, baseComp, timeline)
	if (err == nil) != (refErr == nil) {
		t.Fatalf("%s: error %v, reference %v", desc, err, refErr)
	}
	if err != nil {
		if !errors.Is(err, ErrBadConfig) || err.Error() != refErr.Error() {
			t.Fatalf("%s: error %q, reference %q", desc, err, refErr)
		}
		return err
	}
	if len(got) != len(ref) {
		t.Fatalf("%s: %d phases, reference %d", desc, len(got), len(ref))
	}
	totalIDs := unionSize(n, timeline)
	for i := range ref {
		p, r := &got[i], &ref[i]
		if p.n() != len(r.live) || p.c() != len(r.comp) {
			t.Fatalf("%s: phase %d (n, c) = (%d, %d), reference (%d, %d)",
				desc, i, p.n(), p.c(), len(r.live), len(r.comp))
		}
		if !reflect.DeepEqual(p.live.members(), r.live) || !reflect.DeepEqual(p.comp.members(), r.comp) {
			t.Fatalf("%s: phase %d members live %v comp %v, reference %v %v",
				desc, i, p.live.members(), p.comp.members(), r.live, r.comp)
		}
		if dc := p.denseComp(); !reflect.DeepEqual(dc, r.denseComp) {
			t.Fatalf("%s: phase %d denseComp %v, reference %v", desc, i, dc, r.denseComp)
		}
		for d, g := range r.live {
			if at := p.live.at(d); at != g {
				t.Fatalf("%s: phase %d live.at(%d) = %v, reference %v", desc, i, d, at, g)
			}
		}
		for g := trace.NodeID(-1); g <= trace.NodeID(totalIDs); g++ {
			want, wantOK := r.denseOf[g]
			if d, ok := p.live.rankOf(g); ok != wantOK || d != want {
				t.Fatalf("%s: phase %d rankOf(%v) = (%d, %v), reference (%d, %v)", desc, i, g, d, ok, want, wantOK)
			}
			if p.comp.has(g) != r.compSet[g] {
				t.Fatalf("%s: phase %d comp.has(%v) = %v", desc, i, g, p.comp.has(g))
			}
		}
	}
	T := make([]uint64, len(ref)+1)
	for e := range ref {
		T[e+1] = T[e] + uint64(10*(e+1))
	}
	down, churn := churnSchedule(got, totalIDs, T)
	refDown, refChurn := refChurnSchedule(ref, totalIDs, T)
	if !reflect.DeepEqual(down, refDown) {
		t.Fatalf("%s: Down %v, reference %v", desc, down, refDown)
	}
	if !reflect.DeepEqual(churn, refChurn) {
		t.Fatalf("%s: churn %v, reference %v", desc, churn, refChurn)
	}
	pool, refPool := senderPool(got), refSenderPool(ref)
	if !reflect.DeepEqual(pool.members(), refPool) {
		t.Fatalf("%s: sender pool %v, reference %v", desc, pool.members(), refPool)
	}
	return nil
}

// randomTimeline draws a small population, a base compromised set
// (the first c nodes, or an explicit list in shuffled order with runs and
// gaps), and up to six epochs whose deltas sometimes exceed what the
// population can supply, so every error branch is reached.
func randomTimeline(seed int64) (int, []trace.NodeID, []Epoch) {
	rng := stats.NewRand(seed)
	n := 2 + rng.Intn(40)
	var base []trace.NodeID
	c := rng.Intn(n)
	if rng.Intn(2) == 0 {
		for i := 0; i < c; i++ {
			base = append(base, trace.NodeID(i))
		}
	} else {
		perm := rng.Perm(n)[:c]
		if rng.Intn(2) == 0 {
			sort.Ints(perm)
		}
		for _, v := range perm {
			base = append(base, trace.NodeID(v))
		}
	}
	timeline := make([]Epoch, 1+rng.Intn(6))
	for i := range timeline {
		e := &timeline[i]
		e.Rounds = rng.Intn(3)
		if rng.Intn(2) == 0 {
			e.Join = rng.Intn(12)
		}
		if rng.Intn(2) == 0 {
			e.Leave = rng.Intn(n/2 + 2)
		}
		if rng.Intn(2) == 0 {
			e.Compromise = rng.Intn(n/3 + 2)
		}
		if rng.Intn(3) == 0 {
			e.Recover = rng.Intn(c + 3)
		}
	}
	return n, base, timeline
}

func TestTimelineMembershipMatchesReference(t *testing.T) {
	// Every outcome must be reached: a valid schedule and each of the
	// five configuration errors.
	outcomes := map[string]int{}
	kinds := []string{"left to leave", "left to compromise", "left to recover", "live nodes", "whole population"}
	for seed := int64(0); seed < 3000; seed++ {
		n, base, timeline := randomTimeline(seed)
		err := checkMembership(t, n, base, timeline)
		kind := "valid"
		if err != nil {
			kind = err.Error()
			for _, k := range kinds {
				if strings.Contains(kind, k) {
					kind = k
				}
			}
		}
		outcomes[kind]++
	}
	for _, k := range append(kinds, "valid") {
		if outcomes[k] == 0 {
			t.Errorf("no random timeline reached outcome %q (outcomes %v)", k, outcomes)
		}
	}
	// Hand-picked corners: LIFO recovery through the explicit base order,
	// recovery across a joined-then-compromised run, and a leave that
	// consumes the epoch's own joiners.
	checkMembership(t, 10, []trace.NodeID{7, 2, 3, 9}, []Epoch{
		{Rounds: 1, Recover: 1},
		{Rounds: 1, Compromise: 3, Recover: 2},
		{Rounds: 1, Join: 4, Leave: 5, Compromise: 2, Recover: 4},
	})
	checkMembership(t, 6, nil, []Epoch{{Messages: 1, Join: 3, Leave: 3}, {Messages: 1, Leave: 5}})
	checkMembership(t, 5, []trace.NodeID{0, 1}, []Epoch{{Messages: 1, Compromise: 3}})
	checkMembership(t, 5, []trace.NodeID{0, 1}, []Epoch{{Messages: 1, Recover: 3}})
}

// FuzzTimelineMembership: fuzzer-chosen timelines (population, explicit
// base compromised set, and per-epoch deltas, five bytes an epoch) must
// produce the reference schedule exactly.
func FuzzTimelineMembership(f *testing.F) {
	f.Add(uint8(10), []byte{7, 2, 3, 9}, []byte{1, 0, 0, 0, 1, 1, 0, 0, 3, 2, 1, 4, 5, 2, 4})
	f.Add(uint8(4), []byte{}, []byte{0, 0, 3, 0, 0, 0, 9, 0, 0, 0})
	f.Add(uint8(30), []byte{0, 1, 2, 5, 6}, []byte{2, 5, 3, 4, 1, 0, 8, 1, 2, 7})
	f.Fuzz(func(t *testing.T, nb uint8, compBytes, epochBytes []byte) {
		n := 2 + int(nb%62)
		seen := map[trace.NodeID]bool{}
		var base []trace.NodeID
		for _, b := range compBytes {
			g := trace.NodeID(int(b) % n)
			if !seen[g] && len(base) < n-1 {
				seen[g] = true
				base = append(base, g)
			}
		}
		var timeline []Epoch
		for i := 0; i+5 <= len(epochBytes) && len(timeline) < 8; i += 5 {
			b := epochBytes[i : i+5]
			timeline = append(timeline, Epoch{
				Rounds:     int(b[0] % 3),
				Join:       int(b[1] % 32),
				Leave:      int(b[2] % 32),
				Compromise: int(b[3] % 32),
				Recover:    int(b[4] % 32),
			})
		}
		if len(timeline) == 0 {
			return
		}
		checkMembership(t, n, base, timeline)
	})
}
