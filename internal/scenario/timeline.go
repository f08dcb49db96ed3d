package scenario

// The timeline dimension: dynamic populations as piecewise-constant
// phases. This file owns everything the three backends share — the
// deterministic membership schedule derived from Config.Timeline, the
// dense-space mapping each phase hands to the analytic machinery, the
// cross-phase degradation session, and the compact CLI epoch syntax — so
// that "the same scenario on every backend" keeps meaning the same
// population trajectory everywhere.
//
// Identity rules (all deterministic, shared by every backend):
//
//   - The initial population is 0..N−1; joiners get fresh identities
//     allocated upward (N, N+1, ...). The union space therefore has
//     N + ΣJoin identities, of which each phase sees a live subset.
//   - Leaves remove the highest-identity honest members first.
//   - Compromises convert the lowest-identity honest members first (the
//     creeping-compromise counterpart of "the first Count nodes").
//   - Recoveries undo compromises LIFO (most recently compromised first).
//
// Every rule cuts the membership at a boundary instead of picking nodes
// one by one, so each phase's live and compromised sets are stored as
// sorted identity ranges (idSet, membership.go): O(epochs + Σ|deltas| +
// explicit base-compromise runs) ranges in total, whatever N is. A phase's
// (N_e, C_e) is therefore arithmetic, never a walk over N identities.
//
// Each phase maps its live members, in ascending identity order, onto the
// dense space 0..n_e−1 the exact engine, the Monte-Carlo estimator, and
// the adversary's analyst operate on: dense → union is a rank search
// (live.at), union → dense a binary search (live.rankOf). The union
// identity is what threads a node through the phases of a degradation
// session.

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"

	"anonmix/internal/adversary"
	"anonmix/internal/events"
	"anonmix/internal/montecarlo"
	"anonmix/internal/pathsel"
	workpool "anonmix/internal/pool"
	"anonmix/internal/scenario/capability"
	"anonmix/internal/stats"
	"anonmix/internal/trace"
)

// phase is the normalized state of one epoch: the epoch's budgets plus its
// membership as interval sets, O(spans) in size however large the
// population.
type phase struct {
	// epoch echoes the configured deltas and budgets.
	epoch Epoch
	// live holds the members; dense node i is live.at(i), and
	// live.rankOf inverts it.
	live idSet
	// comp holds the compromised members, a subset of live.
	comp idSet
}

// n is the phase's live population size.
func (p *phase) n() int { return p.live.len() }

// c is the phase's compromised count.
func (p *phase) c() int { return p.comp.len() }

// denseComp materializes the dense images of comp (positions in live,
// ascending) for the consumers whose contract takes an O(C) slice: the
// adversary's analyst and the Monte-Carlo estimator.
func (p *phase) denseComp() []trace.NodeID {
	if p.c() == 0 {
		return nil
	}
	out := make([]trace.NodeID, 0, p.c())
	for _, sp := range p.comp.spans {
		// comp ⊆ live, so a compromised run is a run of consecutive ranks.
		r, _ := p.live.rankOf(sp.lo)
		for d := r; d < r+int(sp.hi-sp.lo); d++ {
			out = append(out, trace.NodeID(d))
		}
	}
	return out
}

// normalizeTimeline validates Config.Timeline, reconciles it with the
// workload, and materializes the membership schedule into cfg.phases. A
// nil timeline leaves the config untouched (the static model).
func normalizeTimeline(cfg *Config) error {
	if len(cfg.Timeline) == 0 {
		return nil
	}
	var msgs, rounds int
	for i, e := range cfg.Timeline {
		if e.Messages < 0 || e.Rounds < 0 || e.Join < 0 || e.Leave < 0 || e.Compromise < 0 || e.Recover < 0 {
			return fmt.Errorf("%w: epoch %d has a negative field (%+v)", ErrBadConfig, i, e)
		}
		msgs += e.Messages
		rounds += e.Rounds
	}
	switch {
	case msgs > 0 && rounds > 0:
		return fmt.Errorf("%w: timeline mixes Messages and Rounds budgets (pick one axis)", ErrBadConfig)
	case msgs == 0 && rounds == 0:
		return fmt.Errorf("%w: timeline carries no traffic (every epoch has zero Messages and Rounds)", ErrBadConfig)
	case rounds > 0:
		// Degradation timeline: Workload.Messages sessions persist across
		// the phases, each sending ΣRounds rounds.
		if cfg.Workload.Rounds > 1 {
			return fmt.Errorf("%w: per-epoch Rounds replace Workload.Rounds (leave it unset)", ErrBadConfig)
		}
		if cfg.Workload.Messages <= 0 {
			return fmt.Errorf("%w: degradation timeline needs Workload.Messages sessions > 0", ErrBadConfig)
		}
		cfg.Workload.Rounds = rounds
	default:
		// Single-shot timeline: the per-epoch budgets are the traffic.
		if cfg.Workload.Messages != 0 {
			return fmt.Errorf("%w: per-epoch Messages replace Workload.Messages (leave it unset)", ErrBadConfig)
		}
		if cfg.Workload.Rounds > 1 {
			return fmt.Errorf("%w: a Messages timeline is single-shot (use per-epoch Rounds for degradation)", ErrBadConfig)
		}
		if cfg.Workload.Confidence > 0 {
			return fmt.Errorf("%w: identification tracking needs a Rounds timeline", ErrBadConfig)
		}
		cfg.Workload.Messages = msgs
	}
	phases, err := computePhases(cfg.N, compromiseRuns(cfg.Adversary.Compromised), cfg.Timeline)
	if err != nil {
		return err
	}
	if cfg.Workload.FixedSender {
		s := cfg.Workload.Sender
		for i := range phases {
			if !phases[i].live.has(s) {
				return fmt.Errorf("%w: fixed sender %v leaves during epoch %d", ErrBadConfig, s, i)
			}
			if phases[i].comp.has(s) {
				return fmt.Errorf("%w: fixed sender %v is compromised in epoch %d", ErrBadConfig, s, i)
			}
		}
	}
	if rounds > 0 && !cfg.Workload.FixedSender && senderPool(phases).len() == 0 {
		return fmt.Errorf("%w: no node is a member through every traffic epoch (empty session sender pool)", ErrBadConfig)
	}
	if cfg.Strategy.Length != nil {
		// The strategy must fit the smallest phase: a simple path cannot be
		// longer than the live population minus the sender.
		minN := cfg.N
		for i := range phases {
			if n := phases[i].n(); n < minN {
				minN = n
			}
		}
		if err := cfg.Strategy.Validate(minN); err != nil {
			return fmt.Errorf("%w: strategy does not fit the smallest epoch population %d: %w",
				ErrBadConfig, minN, err)
		}
	}
	cfg.phases = phases
	return nil
}

// computePhases derives the deterministic membership schedule: the state
// after applying each epoch's deltas in order (joins, leaves, compromises,
// recoveries). base lists the initially compromised identities as
// compromise-order runs (see compromiseRuns). Every step is set algebra on
// interval sets, so the cost is O(epochs × spans), independent of n.
func computePhases(n int, base []span, timeline []Epoch) ([]phase, error) {
	total := n
	for _, e := range timeline {
		if e.Join > math.MaxInt-total {
			return nil, fmt.Errorf("%w: timeline joins overflow the identity space (%d initial nodes)", ErrBadConfig, n)
		}
		total += e.Join
	}
	live := rangeSet(0, trace.NodeID(n))
	// stack tracks compromise order for LIFO recovery; the base set counts
	// as compromised in configuration order.
	var stack []span
	for _, sp := range base {
		stack = appendSpan(stack, sp)
	}
	sorted := append([]span(nil), stack...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].lo < sorted[j].lo })
	comp := newIDSet(sorted)
	next := trace.NodeID(n)
	phases := make([]phase, 0, len(timeline))
	for i, e := range timeline {
		if e.Join > 0 {
			live = live.union(rangeSet(next, next+trace.NodeID(e.Join)))
			next += trace.NodeID(e.Join)
		}
		// Leaves take the highest-identity honest members, compromises the
		// lowest.
		if e.Leave > 0 {
			honest := live.minus(comp)
			if honest.len() < e.Leave {
				return nil, fmt.Errorf("%w: epoch %d: no honest member left to leave", ErrBadConfig, i)
			}
			live = live.minus(honest.highest(e.Leave))
		}
		if e.Compromise > 0 {
			honest := live.minus(comp)
			if honest.len() < e.Compromise {
				return nil, fmt.Errorf("%w: epoch %d: no honest member left to compromise", ErrBadConfig, i)
			}
			taken := honest.lowest(e.Compromise)
			comp = comp.union(taken)
			for _, sp := range taken.spans {
				stack = appendSpan(stack, sp)
			}
		}
		if e.Recover > 0 {
			if comp.len() < e.Recover {
				return nil, fmt.Errorf("%w: epoch %d: no compromised node left to recover", ErrBadConfig, i)
			}
			var popped idSet
			stack, popped = popRuns(stack, e.Recover)
			comp = comp.minus(popped)
		}
		p := phase{epoch: e, live: live, comp: comp}
		if p.n() < 2 {
			return nil, fmt.Errorf("%w: epoch %d leaves %d live nodes (need ≥ 2)", ErrBadConfig, i, p.n())
		}
		if p.c() >= p.n() {
			return nil, fmt.Errorf("%w: epoch %d compromises the whole population (%d of %d)",
				ErrBadConfig, i, p.c(), p.n())
		}
		phases = append(phases, p)
	}
	return phases, nil
}

// EpochState summarizes one epoch of a timeline schedule: the live
// population, the compromised count, and the epoch's share of the
// timeline's traffic. It is the population-trajectory view consumers like
// the epoch-aware optimizer need: counts only, no identities.
type EpochState struct {
	// Index is the epoch's position in the timeline.
	Index int
	// N and C are the live population and compromised count after the
	// epoch's deltas.
	N, C int
	// Messages and Rounds echo the epoch's traffic budgets.
	Messages, Rounds int
	// Weight is the epoch's share of the timeline's total traffic; equal
	// shares when no epoch carries traffic (a pure population drift).
	Weight float64
}

// TimelineStates derives the deterministic membership schedule of a
// timeline over a base population of n nodes with the first c compromised
// (the standard adversary layout), returning each epoch's (N, C) and
// traffic weight. It applies the same identity rules as the execution
// backends, so the returned trajectory is exactly the one a scenario run
// would traverse. Its time and memory depend on the number of epochs, not
// on n or the deltas' sizes.
func TimelineStates(n, c int, timeline []Epoch) ([]EpochState, error) {
	if n < 2 {
		return nil, fmt.Errorf("%w: need at least 2 nodes, have %d", ErrBadConfig, n)
	}
	if c < 0 || c >= n {
		return nil, fmt.Errorf("%w: %d compromised of %d nodes", ErrBadConfig, c, n)
	}
	if len(timeline) == 0 {
		return nil, fmt.Errorf("%w: empty timeline", ErrBadConfig)
	}
	for i, e := range timeline {
		if e.Messages < 0 || e.Rounds < 0 || e.Join < 0 || e.Leave < 0 || e.Compromise < 0 || e.Recover < 0 {
			return nil, fmt.Errorf("%w: epoch %d has a negative field (%+v)", ErrBadConfig, i, e)
		}
	}
	phases, err := computePhases(n, []span{{0, trace.NodeID(c)}}, timeline)
	if err != nil {
		return nil, err
	}
	out := make([]EpochState, len(phases))
	var total float64
	for i := range phases {
		out[i] = EpochState{
			Index:    i,
			N:        phases[i].n(),
			C:        phases[i].c(),
			Messages: phases[i].epoch.Messages,
			Rounds:   phases[i].epoch.Rounds,
		}
		total += float64(out[i].Messages + out[i].Rounds)
	}
	for i := range out {
		if total > 0 {
			out[i].Weight = float64(out[i].Messages+out[i].Rounds) / total
		} else {
			out[i].Weight = 1 / float64(len(out))
		}
	}
	return out, nil
}

// unionSize is the size of the union identity space of a schedule.
func unionSize(n int, timeline []Epoch) int {
	total := n
	for _, e := range timeline {
		total += e.Join
	}
	return total
}

// timelineRounds reports whether the schedule is a degradation timeline
// (per-epoch Rounds) rather than a single-shot one (per-epoch Messages).
func timelineRounds(phases []phase) bool {
	for i := range phases {
		if phases[i].epoch.Rounds > 0 {
			return true
		}
	}
	return false
}

// senderPool returns the union identities eligible to carry a persistent
// session: members of every phase that sends rounds (compromised members
// included — theirs is the local-eavesdropper branch), or of any phase
// when none does. Sessions draw pool.at(rng.Intn(pool.len())), the
// ascending-order draw of a materialized pool.
func senderPool(phases []phase) idSet {
	var pool idSet
	for i := range phases {
		pool = pool.union(phases[i].live)
	}
	for i := range phases {
		if phases[i].epoch.Rounds > 0 {
			pool = pool.intersect(phases[i].live)
		}
	}
	return pool
}

// roundLives materializes the live lists of the phases that send rounds —
// the dense → union maps PhasedAccumulator.Observe takes. Degradation runs
// alone need them, and their accumulator is already O(union).
func roundLives(phases []phase) [][]trace.NodeID {
	lives := make([][]trace.NodeID, len(phases))
	for i := range phases {
		if phases[i].epoch.Rounds > 0 {
			lives[i] = phases[i].live.members()
		}
	}
	return lives
}

// timelineWeights returns each phase's share of the total traffic
// (messages for single-shot timelines, rounds for degradation ones).
func timelineWeights(phases []phase) []float64 {
	w := make([]float64, len(phases))
	var total float64
	for i := range phases {
		w[i] = float64(phases[i].epoch.Messages + phases[i].epoch.Rounds)
		total += w[i]
	}
	for i := range w {
		w[i] /= total
	}
	return w
}

// timelineMaxH is the traffic-weighted upper bound Σ w_e·log2(n_e): the
// natural yardstick when the population size itself varies.
func timelineMaxH(phases []phase) float64 {
	var maxH float64
	for i, w := range timelineWeights(phases) {
		maxH += w * math.Log2(float64(phases[i].n()))
	}
	return maxH
}

// phaseSeed derives a per-phase RNG seed, so phases draw from disjoint
// deterministic streams (the shared stats.ForkSeed stream derivation).
func phaseSeed(seed int64, i int) int64 {
	return stats.ForkSeed(seed, int64(i+1))
}

// identity reports whether the phase's live members are 0..n−1, so its
// dense and union identities coincide — every static run's one phase, and
// a timeline's phases before any churn.
func (p *phase) identity() bool {
	return len(p.live.spans) == 1 && p.live.spans[0].lo == 0
}

// holds reports whether every node a trace names, the receiver
// pseudo-identity aside, is a live member of the phase.
func (p *phase) holds(mt *trace.MessageTrace) bool {
	in := func(g trace.NodeID) bool { return g == trace.Receiver || p.live.has(g) }
	if mt.ReceiverSeen && !in(mt.ReceiverPred) {
		return false
	}
	for _, r := range mt.Reports {
		if !in(r.Observer) || !in(r.Pred) || !in(r.Succ) {
			return false
		}
	}
	return true
}

// denseTrace rewrites a union-identity message trace into the phase's
// dense node space (the receiver pseudo-identity passes through). An
// identity phase returns the trace itself, sparing the copy.
func (p *phase) denseTrace(mt *trace.MessageTrace) (*trace.MessageTrace, error) {
	if p.identity() && p.holds(mt) {
		return mt, nil
	}
	out := &trace.MessageTrace{
		Msg:          mt.Msg,
		ReceiverSeen: mt.ReceiverSeen,
	}
	toDense := func(g trace.NodeID) (trace.NodeID, error) {
		if g == trace.Receiver {
			return trace.Receiver, nil
		}
		d, ok := p.live.rankOf(g)
		if !ok {
			return 0, fmt.Errorf("scenario: node %v observed outside its membership phase", g)
		}
		return trace.NodeID(d), nil
	}
	var err error
	if mt.ReceiverSeen {
		if out.ReceiverPred, err = toDense(mt.ReceiverPred); err != nil {
			return nil, err
		}
	}
	if len(mt.Reports) > 0 {
		out.Reports = make([]trace.Tuple, len(mt.Reports))
		for i, r := range mt.Reports {
			d := r
			if d.Observer, err = toDense(r.Observer); err != nil {
				return nil, err
			}
			if d.Pred, err = toDense(r.Pred); err != nil {
				return nil, err
			}
			if d.Succ, err = toDense(r.Succ); err != nil {
				return nil, err
			}
			out.Reports[i] = d
		}
	}
	return out, nil
}

// phasedSession folds one persistent session through the phases of a
// degradation timeline: the caller's union-space accumulator (reset here,
// so one allocation serves every session) collects each round's trace,
// produced by draw (phase index, global round) in the phase's dense space,
// and a sender compromised during a phase is identified outright from its
// first round there on (the adversary's agent at the sender — once burned,
// always burned, recovery notwithstanding). Exact and Monte-Carlo sessions
// synthesize the draw; the testbed looks up collected traces. Entropies
// are written into the caller's buffer, indexed by global round (its
// length must be the timeline's total rounds); identifiedAt is the first
// 1-based round reaching the confidence threshold (0 = never).
func phasedSession(phases []phase, lives [][]trace.NodeID, analysts []*adversary.Analyst,
	pa *adversary.PhasedAccumulator, sc *adversary.Scratch, entropies []float64,
	sender trace.NodeID, conf float64,
	draw func(pi, r int, ds trace.NodeID) (*trace.MessageTrace, error)) (identifiedAt int, err error) {
	pa.Reset()
	r := 0
	dead := false // sender observed as compromised: identified for good
	for pi := range phases {
		p := &phases[pi]
		if p.epoch.Rounds == 0 {
			continue
		}
		if p.comp.has(sender) {
			dead = true
		}
		ds, _ := p.live.rankOf(sender)
		for j := 0; j < p.epoch.Rounds; j++ {
			if dead {
				entropies[r] = 0
				if identifiedAt == 0 && conf > 0 {
					identifiedAt = r + 1
				}
				r++
				continue
			}
			mt, err := draw(pi, r, trace.NodeID(ds))
			if err != nil {
				return 0, err
			}
			if err := pa.ObserveScratch(analysts[pi], mt, lives[pi], sc); err != nil {
				return 0, err
			}
			h, top, mass, err := pa.SnapshotFast()
			if err != nil {
				return 0, err
			}
			entropies[r] = h
			if identifiedAt == 0 && conf > 0 && top == sender && mass >= conf {
				identifiedAt = r + 1
			}
			r++
		}
	}
	return identifiedAt, nil
}

// epochResults summarizes a degradation run's blended curve per phase: the
// mean accumulated entropy over each phase's rounds.
func epochResults(phases []phase, sessions int, hRounds []float64) []EpochResult {
	out := make([]EpochResult, len(phases))
	r := 0
	for i := range phases {
		rounds := phases[i].epoch.Rounds
		var sum float64
		for j := 0; j < rounds; j++ {
			sum += hRounds[r+j]
		}
		out[i] = EpochResult{
			Index:    i,
			N:        phases[i].n(),
			C:        phases[i].c(),
			Messages: sessions * rounds,
			Rounds:   rounds,
		}
		if rounds > 0 {
			out[i].H = sum / float64(rounds)
		}
		r += rounds
	}
	return out
}

// ParseTimeline parses the compact epoch syntax of the CLIs: epochs
// separated by ';', each a comma-separated list of key=value fields with
// keys msgs, rounds, join, leave, comp, recover. Example:
//
//	msgs=2000;msgs=2000,join=10,comp=2;msgs=2000,leave=5
//
// An empty string yields a nil timeline (the static model).
func ParseTimeline(s string) ([]Epoch, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	var out []Epoch
	for i, part := range strings.Split(s, ";") {
		var e Epoch
		for _, field := range strings.Split(part, ",") {
			field = strings.TrimSpace(field)
			if field == "" {
				continue
			}
			key, val, ok := strings.Cut(field, "=")
			if !ok {
				return nil, fmt.Errorf("%w: epoch %d: field %q is not key=value", ErrBadConfig, i, field)
			}
			v, err := strconv.Atoi(strings.TrimSpace(val))
			if err != nil {
				return nil, fmt.Errorf("%w: epoch %d: %s=%q is not an integer", ErrBadConfig, i, key, val)
			}
			switch strings.ToLower(strings.TrimSpace(key)) {
			case "msgs", "messages", "m":
				e.Messages = v
			case "rounds", "r":
				e.Rounds = v
			case "join", "j":
				e.Join = v
			case "leave":
				e.Leave = v
			case "comp", "compromise":
				e.Compromise = v
			case "recover":
				e.Recover = v
			default:
				return nil, fmt.Errorf("%w: epoch %d: unknown field %q (known: msgs, rounds, join, leave, comp, recover)",
					ErrBadConfig, i, key)
			}
		}
		out = append(out, e)
	}
	return out, nil
}

// drawPhasePath draws one rerouting path for a session round: the sampler
// works in the phase's dense space, and the result is mapped back to union
// identities when the caller needs concrete network routes. The mapped
// copy is freshly allocated; an identity phase returns the sampler's
// reusable buffer instead, valid until the next draw (the kernel copies a
// route on send, and onion.Build consumes it synchronously).
func drawPhasePath(p *phase, sp *pathsel.Sampler, rng *stats.Stream, sender trace.NodeID) ([]trace.NodeID, error) {
	ds, _ := p.live.rankOf(sender)
	dense, err := sp.SelectPath(rng, trace.NodeID(ds))
	if err != nil || p.identity() {
		return dense, err
	}
	global := make([]trace.NodeID, len(dense))
	for i, d := range dense {
		global[i] = p.live.at(int(d))
	}
	return global, nil
}

// phasedMachinery builds the per-phase inference stack of a sampled phased
// run (a degradation timeline on any backend, every routed testbed run) —
// shared engine-cache engines, analysts over the dense compromised sets,
// and dense-space selectors — enforcing the per-message analysis
// capabilities (standard inference, sender self-report).
func phasedMachinery(cfg Config, backend string) ([]*adversary.Analyst, []*pathsel.Selector, error) {
	analysts := make([]*adversary.Analyst, len(cfg.phases))
	sels := make([]*pathsel.Selector, len(cfg.phases))
	for i := range cfg.phases {
		p := &cfg.phases[i]
		e, err := Engine(p.n(), p.c(), engineOptions(cfg)...)
		if err != nil {
			return nil, nil, err
		}
		if e.Mode() != events.InferenceStandard {
			return nil, nil, capability.Unsupported(backend,
				capability.ErrInference, "per-message analysis requires the standard inference mode, engine uses "+e.Mode().String())
		}
		if !e.SenderSelfReport() {
			// The per-message analysis hardcodes the local-eavesdropper
			// branch (mirroring the static sampled paths); only the exact
			// backend's closed forms support the ablation.
			return nil, nil, capability.Unsupported(backend,
				capability.ErrInference, "no-sender-self-report ablation is supported only on the exact backend's closed-form analysis")
		}
		if analysts[i], err = adversary.NewAnalyst(e, cfg.Strategy.Length, p.denseComp()); err != nil {
			return nil, nil, err
		}
		if sels[i], err = pathsel.NewSelector(p.n(), cfg.Strategy); err != nil {
			return nil, nil, err
		}
	}
	return analysts, sels, nil
}

// firstTrafficPhase returns the index of the first phase that sends rounds.
func firstTrafficPhase(phases []phase) int {
	for i := range phases {
		if phases[i].epoch.Rounds > 0 {
			return i
		}
	}
	return 0
}

// sessionBatchSize is the work-stealing granule of the phased session
// loop, mirroring the static Monte-Carlo estimator's trial batching: each
// batch's partial sums are merged in batch-index order so the result is
// bit-identical for any worker count.
const sessionBatchSize = 64

// phasedArena is the per-worker scratch of a degradation-timeline run:
// per-phase samplers, a reusable union-space accumulator, classification
// scratch, one trace buffer, and the per-session entropy curve. The draw
// closure is built once per arena (capturing only the arena) so the
// session loop allocates nothing.
type phasedArena struct {
	samplers  []*pathsel.Sampler
	pa        *adversary.PhasedAccumulator
	sc        adversary.Scratch
	mt        trace.MessageTrace
	entropies []float64
	rng       stats.Stream
	draw      func(pi, r int, ds trace.NodeID) (*trace.MessageTrace, error)
}

// runPhasedRounds executes a degradation timeline analytically:
// Workload.Messages persistent sessions spanning the phases, each round
// synthesized in its phase's dense space and folded through a union-space
// PhasedAccumulator. Every session draws from its own counter-based
// stream, so the output is a pure function of (Seed, Messages) alone —
// workers only bounds how many sessions run concurrently (the exact
// backend passes 1 and stays the serial reference, with identical
// results).
func runPhasedRounds(cfg Config, backend string, workers int) (Result, error) {
	analysts, sels, err := phasedMachinery(cfg, backend)
	if err != nil {
		return Result{}, err
	}
	var (
		phases   = cfg.phases
		total    = unionSize(cfg.N, cfg.Timeline)
		sessions = cfg.Workload.Messages
		k        = cfg.Workload.Rounds
		conf     = cfg.Workload.Confidence
		first    = firstTrafficPhase(phases)
		lives    = roundLives(phases)
		pool     idSet
	)
	if !cfg.Workload.FixedSender {
		pool = senderPool(phases)
	}
	comps := make([]func(trace.NodeID) bool, len(analysts))
	for i, a := range analysts {
		comps[i] = a.Compromised
	}
	newArena := func() (*phasedArena, error) {
		ar := &phasedArena{
			samplers:  make([]*pathsel.Sampler, len(sels)),
			entropies: make([]float64, k),
		}
		for i, sel := range sels {
			var err error
			if ar.samplers[i], err = sel.NewSampler(); err != nil {
				return nil, err
			}
		}
		var err error
		if ar.pa, err = adversary.NewPhasedAccumulator(total); err != nil {
			return nil, err
		}
		ar.draw = func(pi, r int, ds trace.NodeID) (*trace.MessageTrace, error) {
			dense, err := ar.samplers[pi].SelectPath(&ar.rng, ds)
			if err != nil {
				return nil, err
			}
			montecarlo.SynthesizeInto(&ar.mt, trace.MessageID(r+1), ds, dense, comps[pi])
			return &ar.mt, nil
		}
		return ar, nil
	}
	type part struct {
		sum         stats.Summary
		entropySums []float64
		compSender  int
		deanon      int
		identified  int
		roundsSum   int
		err         error
	}
	batches := (sessions + sessionBatchSize - 1) / sessionBatchSize
	parts := make([]part, batches)
	var nextBatch, doneSessions atomic.Int64
	var aborted atomic.Bool
	cancel := cfg.cancelChan()
	if workers > batches {
		workers = batches
	}
	workpool.ForEach(workers, func(int) {
		ar, err := newArena()
		if err != nil {
			if b := int(nextBatch.Add(1)) - 1; b < batches {
				parts[b].err = err
			}
			return
		}
		for {
			if cancelRequested(cancel) {
				aborted.Store(true)
				return
			}
			b := int(nextBatch.Add(1)) - 1
			if b >= batches {
				return
			}
			p := &parts[b]
			p.entropySums = make([]float64, k)
			lo, hi := b*sessionBatchSize, (b+1)*sessionBatchSize
			if hi > sessions {
				hi = sessions
			}
			for s := lo; s < hi; s++ {
				ar.rng = stats.NewStream(cfg.Workload.Seed, int64(s))
				sender := cfg.Workload.Sender
				if !cfg.Workload.FixedSender {
					sender = pool.at(ar.rng.Intn(pool.len()))
				}
				identifiedAt, err := phasedSession(phases, lives, analysts, ar.pa, &ar.sc,
					ar.entropies, sender, conf, ar.draw)
				if err != nil {
					p.err = err
					return
				}
				if phases[first].comp.has(sender) {
					p.compSender++
				}
				for r, h := range ar.entropies {
					p.entropySums[r] += h
				}
				final := ar.entropies[k-1]
				p.sum.Add(final)
				if final < 1e-9 {
					p.deanon++
				}
				if identifiedAt > 0 {
					p.identified++
					p.roundsSum += identifiedAt
				}
			}
			cfg.emitProgress(int(doneSessions.Add(int64(hi-lo))), sessions, nil)
		}
	})
	if aborted.Load() {
		if err := cfg.checkCanceled(); err != nil {
			return Result{}, err
		}
		// Unreachable in practice (the cancel channel is the context's),
		// kept so an abort can never fall through to a partial merge.
		return Result{}, ErrCanceled
	}
	var (
		sum        stats.Summary
		compSender int
		deanon     int
		identified int
		roundsSum  int
		hRounds    = make([]float64, k)
	)
	for i := range parts {
		if parts[i].err != nil {
			return Result{}, parts[i].err
		}
		sum.Merge(parts[i].sum)
		compSender += parts[i].compSender
		deanon += parts[i].deanon
		identified += parts[i].identified
		roundsSum += parts[i].roundsSum
		for r, s := range parts[i].entropySums {
			hRounds[r] += s
		}
	}
	for r := range hRounds {
		hRounds[r] /= float64(sessions)
	}
	maxH := timelineMaxH(phases)
	res := Result{
		H:                      sum.Mean(),
		StdErr:                 sum.StdErr(),
		CI95:                   sum.CI95(),
		Estimated:              true,
		Trials:                 sessions,
		MaxH:                   maxH,
		Normalized:             sum.Mean() / maxH,
		CompromisedSenderShare: float64(compSender) / float64(sessions),
		Deanonymized:           deanon,
		HRounds:                hRounds,
		Epochs:                 epochResults(phases, sessions, hRounds),
	}
	if conf > 0 {
		res.IdentifiedShare = float64(identified) / float64(sessions)
		if identified > 0 {
			res.MeanRoundsToIdentify = float64(roundsSum) / float64(identified)
		}
	}
	return res, nil
}
