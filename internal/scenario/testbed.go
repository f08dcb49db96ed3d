package scenario

// The testbed backend: executes scenarios on the sharded discrete-event
// network kernel (package simnet) with the protocol substrate the config
// names — plain source routes, onion layers, Crowds coin-flips, or
// threshold-mix batching — and measures the anonymity degree empirically
// by running the adversary's inference over the collected tuples.
//
// The source-routed substrates (plain, onion, mix) have one driver,
// runRoutedPhases, and one analysis, analyzeTraffic, for every config: a
// timeline runs one phase per epoch, and a static config runs as a single
// phase over the identity membership 0..N−1 — the paper's H*(S) of a fixed
// system is exactly one epoch of a timeline. The driver injects phase by
// phase and settles the network between phases; the analysis folds the
// collected traces in one of two shapes:
//
//   - Messages runs: every message is analyzed on its own with its
//     phase's adversary, and the phases blend into the pooled mean. Under
//     a fault plan H covers the delivered messages and HDegraded folds the
//     evidence retries leaked (testbed_faults.go, which also owns the
//     PolicyReroute wave loop).
//   - Rounds runs (Workload.Rounds > 1, identification tracking, or a
//     Rounds timeline): Workload.Messages persistent sessions keep their
//     sender while their path re-forms every round, injected in round
//     waves, and the adversary multiplies each session's posteriors
//     across rounds and phases — the generalized intersection attack:
//     witnessed identities are zeroed, so candidate sets shrink round over
//     round.
//
// A static run differs from a one-epoch timeline only where its results
// are pinned: its message streams derive from Workload.Seed rather than
// phaseSeed, and it reports no Epochs.
//
// The Crowds substrate keeps its own driver, runCrowds: routing is the
// protocol's coin flips, and the adversary counts predecessors
// (Reiter–Rubin) across each session's rounds instead of inverting source
// routes.

import (
	cryptorand "crypto/rand"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"anonmix/internal/adversary"
	"anonmix/internal/crowds"
	"anonmix/internal/entropy"
	"anonmix/internal/faults"
	"anonmix/internal/onion"
	"anonmix/internal/pathsel"
	"anonmix/internal/scenario/capability"
	"anonmix/internal/simnet"
	"anonmix/internal/stats"
	"anonmix/internal/trace"
)

// defaultMixBatch is the threshold-mix batch size when ProtocolMix is
// selected without an explicit Workload.BatchThreshold.
const defaultMixBatch = 8

// settleTimeout bounds how long a testbed run may take to drain.
const settleTimeout = 5 * time.Minute

type testbedBackend struct{}

func (testbedBackend) Kind() BackendKind { return BackendTestbed }

func (testbedBackend) Run(cfg Config) (Result, error) {
	if cfg.Protocol == ProtocolCrowds {
		if len(cfg.phases) > 0 {
			// The jondo substrate's predecessor statistics assume a fixed
			// crowd; dynamic membership needs the per-epoch closed forms
			// first (see ROADMAP).
			return Result{}, capability.Unsupported(string(BackendTestbed),
				capability.ErrProtocol, "crowds substrate does not support dynamic populations yet")
		}
		return runCrowds(cfg)
	}
	if cfg.Strategy.Kind != pathsel.Simple {
		return Result{}, capability.Unsupported(string(BackendTestbed),
			capability.ErrComplicatedPaths, cfg.Strategy.Name+" (run it on the crowds substrate)")
	}
	return runRoutedPhases(cfg)
}

// routedTraffic records what a routed run injected, slot by slot: one slot
// per message (phase-major) in a Messages run, one per session in a Rounds
// run.
type routedTraffic struct {
	senders []trace.NodeID
	// ids holds each message's final attempt, or session s's round r at
	// s*k+r.
	ids []trace.MessageID
	// PolicyReroute only: the slot each attempt belongs to, each slot's
	// failed attempts, and the number of re-injections.
	origin     map[trace.MessageID]int
	failed     map[int][]trace.MessageID
	reinjected int
}

// staticPhases returns the single phase a static config runs as: the
// identity membership 0..N−1 with the configured adversary, carrying the
// whole workload — as Rounds when the workload tracks degradation, as
// Messages otherwise.
func staticPhases(cfg Config) ([]phase, error) {
	ep := Epoch{Messages: cfg.Workload.Messages}
	if cfg.Workload.degradation() {
		ep = Epoch{Rounds: cfg.Workload.Rounds}
	}
	return computePhases(cfg.N, compromiseRuns(cfg.Adversary.Compromised), []Epoch{ep})
}

// runRoutedPhases executes a scenario on the routed substrates. The
// membership schedule becomes kernel-level churn events at precomputed
// virtual timestamps: each phase gets a disjoint logical-time window wide
// enough for its traffic (injection count plus the worst-case path depth),
// the kernel's per-(node,time) state machine applies the
// joins/leaves/compromises on the boundaries, and path selection draws
// from the phase's live membership only. Between phases the network
// settles (flushing partial threshold-mix batches — the mix "fires on
// timeout" at the phase end) and the injection clock advances past the
// boundary, so every message's observations fall entirely inside one
// phase and are analyzed with that phase's adversary.
func runRoutedPhases(cfg Config) (Result, error) {
	static := len(cfg.phases) == 0
	if static {
		var err error
		if cfg.phases, err = staticPhases(cfg); err != nil {
			return Result{}, err
		}
	}
	analysts, sels, err := phasedMachinery(cfg, string(BackendTestbed))
	if err != nil {
		return Result{}, err
	}
	phases := cfg.phases
	totalIDs := unionSize(cfg.N, cfg.Timeline)
	rounds := timelineRounds(phases)
	sessions := cfg.Workload.Messages
	k := cfg.Workload.Rounds

	// Phase windows: wide enough that every event of phase e has a logical
	// time below T[e+1] (injections advance the clock by one each; every
	// hop, mix release included, adds at most 1+jitter ticks over the
	// phase's running maximum — fault-plan jitter and the retransmit
	// backoff budget included, see phaseSpan — and a path has at most hi+2
	// such steps).
	T := make([]uint64, len(phases)+1)
	for e := range phases {
		m := phases[e].epoch.Messages
		if rounds {
			m = sessions * phases[e].epoch.Rounds
		}
		T[e+1] = T[e] + phaseSpan(&cfg, m)
	}

	down, churn := churnSchedule(phases, totalIDs, T)
	nwCfg := simnet.Config{
		N:           totalIDs,
		Compromised: phases[0].comp.members(),
		Down:        down,
		Churn:       churn,
		Seed:        cfg.Workload.Seed,
		MaxHopDelay: cfg.Workload.MaxHopDelay,
	}
	faultNetConfig(&nwCfg, &cfg)
	var ring *onion.KeyRing
	if cfg.Protocol == ProtocolOnion {
		var secret [8]byte
		binary.LittleEndian.PutUint64(secret[:], uint64(cfg.Workload.Seed)+0x517cc1b727220a95)
		if ring, err = onion.NewKeyRing(secret[:], totalIDs); err != nil {
			return Result{}, err
		}
		fwd, err := onion.NewForwarder(ring)
		if err != nil {
			return Result{}, err
		}
		nwCfg.Forwarder = fwd
	}
	if cfg.Protocol == ProtocolMix {
		nwCfg.BatchThreshold = cfg.Workload.BatchThreshold
		if nwCfg.BatchThreshold < 2 {
			nwCfg.BatchThreshold = defaultMixBatch
		}
		// Batch composition follows arrival order, which is scheduling-
		// dependent across shards; one shard keeps mix scenarios
		// bit-reproducible for a fixed seed (plain/onion runs stay
		// parallel — their analysis is order-independent).
		nwCfg.Shards = 1
	}
	baseGoroutines := runtime.NumGoroutine()
	nw, err := simnet.New(nwCfg)
	if err != nil {
		return Result{}, err
	}
	nw.Start()
	defer nw.Close()

	start := time.Now() //anonlint:allow detrand(wall-clock metrics only, never flows into Result)
	// Per-phase samplers over the dense spaces; drawPhasePath maps their
	// draws to union-identity routes.
	samplers := make([]*pathsel.Sampler, len(sels))
	for i := range sels {
		if samplers[i], err = sels[i].NewSampler(); err != nil {
			return Result{}, err
		}
	}
	injected := 0
	inject := func(e int, rng *stats.Stream, sender trace.NodeID) (trace.MessageID, error) {
		// Cancellation checkpoints ride the sampling backends' 64-session
		// granule, in both modes; a canceled run abandons the kernel
		// mid-traffic and the deferred Close tears it down.
		if injected%sessionBatchSize == 0 {
			if err := cfg.checkCanceled(); err != nil {
				return 0, err
			}
		}
		injected++
		path, err := drawPhasePath(&phases[e], samplers[e], rng, sender)
		if err != nil {
			return 0, err
		}
		if cfg.Protocol == ProtocolOnion && len(path) > 0 {
			blob, err := onion.Build(ring, path, nil, cryptorand.Reader)
			if err != nil {
				return 0, err
			}
			return nw.Inject(sender, path[0], simnet.Packet{Onion: blob})
		}
		return nw.SendRoute(sender, path, nil)
	}

	// One counter-based stream per slot — the streams the Monte-Carlo
	// backend consumes per trial or session, so backend agreement is
	// draw-for-draw — and a rerouted message redraws from its own stream,
	// whichever messages fail and in whatever order the waves return them.
	var (
		tr            routedTraffic
		strs          []stats.Stream
		maxGoroutines int
	)
	if rounds {
		tr.senders = make([]trace.NodeID, sessions)
		tr.ids = make([]trace.MessageID, sessions*k)
		strs = make([]stats.Stream, sessions)
		pool := senderPool(phases)
		for s := range tr.senders {
			strs[s] = stats.NewStream(cfg.Workload.Seed, int64(s))
			if cfg.Workload.FixedSender {
				tr.senders[s] = cfg.Workload.Sender
			} else {
				tr.senders[s] = pool.at(strs[s].Intn(pool.len()))
			}
		}
	} else {
		tr.senders = make([]trace.NodeID, cfg.Workload.Messages)
		tr.ids = make([]trace.MessageID, cfg.Workload.Messages)
		strs = make([]stats.Stream, cfg.Workload.Messages)
	}
	if cfg.Faults != nil && cfg.Reliability.Policy == faults.PolicyReroute {
		tr.origin = make(map[trace.MessageID]int, len(tr.ids))
		tr.failed = make(map[int][]trace.MessageID)
	}
	r, i := 0, 0 // rounds mode: global round; messages mode: slot
	for e := range phases {
		p := &phases[e]
		if e > 0 {
			nw.AdvanceTime(T[e])
		}
		if rounds {
			for j := 0; j < p.epoch.Rounds; j++ {
				for s := 0; s < sessions; s++ {
					id, err := inject(e, &strs[s], tr.senders[s])
					if err != nil {
						return Result{}, err
					}
					tr.ids[s*k+r] = id
				}
				r++
			}
		} else {
			// Messages mode: a timeline's messages draw under the phase's
			// derived seed, matching the per-phase sub-runs of the
			// Monte-Carlo timeline; a static run keeps Workload.Seed.
			seed := cfg.Workload.Seed
			if !static {
				seed = phaseSeed(seed, e)
			}
			for m := 0; m < p.epoch.Messages; m, i = m+1, i+1 {
				strs[i] = stats.NewStream(seed, int64(m))
				sender := cfg.Workload.Sender
				if !cfg.Workload.FixedSender {
					sender = p.live.at(strs[i].Intn(p.n()))
				}
				id, err := inject(e, &strs[i], sender)
				if err != nil {
					return Result{}, err
				}
				tr.senders[i], tr.ids[i] = sender, id
				if tr.origin != nil {
					tr.origin[id] = i
				}
			}
		}
		maxGoroutines = max(maxGoroutines, runtime.NumGoroutine()-baseGoroutines)
		if err := nw.Settle(settleTimeout); err != nil {
			return Result{}, err
		}
		if tr.origin != nil {
			// normalizeFaults confines rerouting to static runs, so the
			// waves never straddle a phase boundary.
			err := tr.rerouteWaves(&cfg, nw, func(i int) (trace.MessageID, error) {
				return inject(e, &strs[i], tr.senders[i])
			})
			if err != nil {
				return Result{}, err
			}
		}
	}
	elapsed := time.Since(start)
	res, err := analyzeTraffic(cfg, analysts, nw, &tr)
	if err != nil {
		return Result{}, err
	}
	if static {
		res.Epochs = nil
	}
	res.Kernel = kernelStats(nw, maxGoroutines, elapsed)
	return res, nil
}

// churnSchedule derives the kernel's membership schedule from the phases:
// the union identities absent at time zero, and at each boundary T[e] the
// phase-to-phase membership diff, ordered join → recover → compromise →
// leave (each ascending) so the kernel's per-node state machine sees only
// legal transitions. Both are range differences of the interval sets, so
// their cost is the number of churned identities, not the population.
func churnSchedule(phases []phase, totalIDs int, T []uint64) ([]trace.NodeID, []simnet.ChurnEvent) {
	absent := rangeSet(0, trace.NodeID(totalIDs)).minus(phases[0].live)
	down := absent.members()
	var churn []simnet.ChurnEvent
	for e := 1; e < len(phases); e++ {
		prev, cur := &phases[e-1], &phases[e]
		for _, d := range [...]struct {
			kind simnet.ChurnKind
			ids  idSet
		}{
			{simnet.ChurnJoin, cur.live.minus(prev.live)},
			{simnet.ChurnRecover, prev.comp.minus(cur.comp)},
			{simnet.ChurnCompromise, cur.comp.minus(prev.comp)},
			{simnet.ChurnLeave, prev.live.minus(cur.live)},
		} {
			for _, sp := range d.ids.spans {
				for g := sp.lo; g < sp.hi; g++ {
					churn = append(churn, simnet.ChurnEvent{Time: T[e], Kind: d.kind, Node: g})
				}
			}
		}
	}
	return down, churn
}

// analyzeTraffic runs the adversary over a settled routed run: it checks
// the kernel's drops, snapshots the fault evidence, and folds the
// collected traces slot by slot in injection order — a fixed order, so the
// empirical estimate is bit-reproducible for a fixed seed (ranging over
// the collated map would reassociate the floating-point mean run to run).
// Messages runs take the O(reports) entropy fast path per message; Rounds
// runs accumulate full posteriors, which costs O(N) per message.
func analyzeTraffic(cfg Config, analysts []*adversary.Analyst, nw *simnet.Network,
	tr *routedTraffic) (Result, error) {
	var fa *faultAnalysis
	if cfg.Faults == nil {
		if drops := nw.Dropped(); len(drops) > 0 {
			return Result{}, fmt.Errorf("scenario: testbed dropped %d packets: %w", len(drops), drops[0])
		}
	} else {
		// Loss and crash drops are the configured fault process; anything
		// else is still a defect.
		if err := checkUnexpectedDrops(nw); err != nil {
			return Result{}, err
		}
		var err error
		if fa, err = newFaultAnalysis(cfg, nw, tr.reinjected); err != nil {
			return Result{}, err
		}
	}
	traces := trace.Collate(nw.Tuples())
	var res Result
	var err error
	if timelineRounds(cfg.phases) {
		res, err = foldSessions(cfg, analysts, traces, tr)
	} else {
		res, err = foldMessages(cfg, analysts, traces, tr, fa)
	}
	if err != nil {
		return Result{}, err
	}
	// A single identity phase weighs 1, so a static run's MaxH is
	// log2(N) = entropy.Max(N), bit for bit.
	res.MaxH = timelineMaxH(cfg.phases)
	res.Normalized = res.H / res.MaxH
	return res, nil
}

// foldMessages measures a Messages run: every phase's traffic is analyzed
// with that phase's adversary in its dense space, and the phases blend
// into the pooled empirical mean. A non-nil faultAnalysis restricts H to
// delivered messages and folds the evidence of failed rerouting attempts
// and retransmissions into HDegraded.
func foldMessages(cfg Config, analysts []*adversary.Analyst,
	traces map[trace.MessageID]*trace.MessageTrace, tr *routedTraffic,
	fa *faultAnalysis) (Result, error) {
	var (
		sum, sumDeg  stats.Summary
		compSenders  int
		deanonymized int
		epochs       []EpochResult
		sc           adversary.Scratch
		partials     []*trace.MessageTrace
		i            int
	)
	for e := range cfg.phases {
		p := &cfg.phases[e]
		var pSum stats.Summary
		var acc *adversary.Accumulator
		if fa != nil {
			var err error
			if acc, err = adversary.NewAccumulator(analysts[e]); err != nil {
				return Result{}, err
			}
		}
		for end := i + p.epoch.Messages; i < end; i++ {
			sender, id := tr.senders[i], tr.ids[i]
			if fa != nil && !fa.delivered[id] {
				continue // undelivered: excluded from H, counted in delivery stats
			}
			if p.comp.has(sender) {
				// Local-eavesdropper branch: the adversary's agent at the
				// sender identifies it outright.
				sum.Add(0)
				pSum.Add(0)
				sumDeg.Add(0)
				compSenders++
				deanonymized++
				continue
			}
			mt := traces[id]
			if mt == nil {
				return Result{}, fmt.Errorf("scenario: message %d has no trace", id)
			}
			dmt, err := p.denseTrace(mt)
			if err != nil {
				return Result{}, fmt.Errorf("scenario: message %d: %w", id, err)
			}
			h, err := analysts[e].EntropyScratch(dmt, &sc)
			if err != nil {
				return Result{}, fmt.Errorf("scenario: message %d: %w", id, err)
			}
			if h < 1e-9 {
				deanonymized++
			}
			sum.Add(h)
			pSum.Add(h)
			if fa == nil {
				continue
			}
			if partials, err = leakedPartials(p, traces, tr.failed[i], fa.retries[id], dmt, partials[:0]); err != nil {
				return Result{}, fmt.Errorf("scenario: message %d: %w", id, err)
			}
			if len(partials) == 0 {
				sumDeg.Add(h)
				continue
			}
			hd, err := foldDegraded(acc, fa.analystsU[e], dmt, partials, &sc)
			if err != nil {
				return Result{}, fmt.Errorf("scenario: message %d degraded fold: %w", id, err)
			}
			sumDeg.Add(hd)
		}
		er := EpochResult{Index: e, N: p.n(), C: p.c(), Messages: p.epoch.Messages}
		if pSum.N() > 0 {
			er.H = pSum.Mean()
		}
		epochs = append(epochs, er)
	}
	res := Result{
		Estimated:    true,
		Trials:       sum.N(),
		Deanonymized: deanonymized,
		Epochs:       epochs,
	}
	if sum.N() > 0 {
		res.H = sum.Mean()
		res.StdErr = sum.StdErr()
		res.CI95 = sum.CI95()
		res.CompromisedSenderShare = float64(compSenders) / float64(sum.N())
	}
	if fa != nil {
		res.DeliveryRate = float64(sum.N()) / float64(len(tr.ids))
		res.MeanAttempts = fa.meanAttempts(len(tr.ids))
		if sumDeg.N() > 0 {
			res.HDegraded = sumDeg.Mean()
		}
	}
	return res, nil
}

// foldSessions folds a Rounds run's collected traces through the
// union-space accumulator, session by session — the empirical counterpart
// of runPhasedRounds.
func foldSessions(cfg Config, analysts []*adversary.Analyst,
	traces map[trace.MessageID]*trace.MessageTrace, tr *routedTraffic) (Result, error) {
	var (
		phases     = cfg.phases
		totalIDs   = unionSize(cfg.N, cfg.Timeline)
		sessions   = len(tr.senders)
		k          = cfg.Workload.Rounds
		conf       = cfg.Workload.Confidence
		first      = firstTrafficPhase(phases)
		sum        stats.Summary
		compSender int
		deanon     int
		idCount    int
		idRounds   int
		hRounds    = make([]float64, k)
	)
	pa, err := adversary.NewPhasedAccumulator(totalIDs)
	if err != nil {
		return Result{}, err
	}
	var sc adversary.Scratch
	entropies := make([]float64, k)
	lives := roundLives(phases)
	s := 0
	draw := func(pi, r int, _ trace.NodeID) (*trace.MessageTrace, error) {
		id := tr.ids[s*k+r]
		mt := traces[id]
		if mt == nil {
			return nil, fmt.Errorf("scenario: message %d has no trace", id)
		}
		return phases[pi].denseTrace(mt)
	}
	for s = 0; s < sessions; s++ {
		sender := tr.senders[s]
		identifiedAt, err := phasedSession(phases, lives, analysts, pa, &sc, entropies, sender, conf, draw)
		if err != nil {
			return Result{}, err
		}
		if phases[first].comp.has(sender) {
			compSender++
		}
		for r, h := range entropies {
			hRounds[r] += h
		}
		final := entropies[k-1]
		sum.Add(final)
		if final < 1e-9 {
			deanon++
		}
		if identifiedAt > 0 {
			idCount++
			idRounds += identifiedAt
		}
	}
	for r := range hRounds {
		hRounds[r] /= float64(sessions)
	}
	res := Result{
		H:                      sum.Mean(),
		StdErr:                 sum.StdErr(),
		CI95:                   sum.CI95(),
		Estimated:              true,
		Trials:                 sessions,
		CompromisedSenderShare: float64(compSender) / float64(sessions),
		Deanonymized:           deanon,
		HRounds:                hRounds,
		Epochs:                 epochResults(phases, sessions, hRounds),
	}
	if conf > 0 {
		res.IdentifiedShare = float64(idCount) / float64(sessions)
		if idCount > 0 {
			res.MeanRoundsToIdentify = float64(idRounds) / float64(idCount)
		}
	}
	return res, nil
}

// runCrowds executes the coin-flip jondo substrate: routing is the
// protocol's own (no strategy selector), honest jondos originate, and the
// result carries the Reiter–Rubin predecessor statistics next to the
// posterior entropy of the observed event. With Rounds > 1 each session is
// one initiator re-forming its path every round while the collaborators
// count predecessors — the classical degradation attack on Crowds.
func runCrowds(cfg Config) (Result, error) {
	n, comp := cfg.N, cfg.Adversary.Compromised
	c := len(comp)
	pf := cfg.CrowdsPf
	theo, err := crowds.PredecessorProb(n, c, pf)
	if err != nil {
		return Result{}, fmt.Errorf("%w: crowds substrate: %w", ErrBadConfig, err)
	}
	nwCfg := simnet.Config{
		N:           n,
		Compromised: comp,
		Seed:        cfg.Workload.Seed,
		MaxHopDelay: cfg.Workload.MaxHopDelay,
	}
	// Degradation runs must be bit-reproducible for a fixed seed, but the
	// live Crowds forwarder draws its coin flips from one shared RNG in
	// event-processing order, which depends on shard scheduling. Multi-round
	// runs therefore materialize each path at injection time — the same
	// draws (first hop, then coin-flip continuations), made serially — and
	// ship it as an explicit route; single-shot runs keep the live
	// hop-by-hop forwarder, whose aggregate statistics don't depend on the
	// draw interleaving.
	var fwd *crowds.Forwarder
	materialize := cfg.Workload.degradation()
	var routeRng *rand.Rand
	if materialize {
		routeRng = stats.Fork(cfg.Workload.Seed, 1)
	} else {
		fwd, err = crowds.NewForwarder(n, pf, cfg.Workload.Seed)
		if err != nil {
			return Result{}, err
		}
		nwCfg.Forwarder = fwd
	}
	baseGoroutines := runtime.NumGoroutine()
	nw, err := simnet.New(nwCfg)
	if err != nil {
		return Result{}, err
	}
	nw.Start()
	defer nw.Close()

	compromised := make(map[trace.NodeID]bool, c)
	for _, id := range comp {
		compromised[id] = true
	}
	sessions := cfg.Workload.Messages
	rounds := cfg.Workload.Rounds
	start := time.Now() //anonlint:allow detrand(wall-clock metrics only, never flows into Result)
	rng := stats.NewRand(cfg.Workload.Seed)
	senders := make([]trace.NodeID, sessions)
	ids := make([]trace.MessageID, sessions*rounds)
	for s := 0; s < sessions; s++ {
		if s%sessionBatchSize == 0 {
			if err := cfg.checkCanceled(); err != nil {
				return Result{}, err
			}
		}
		// Honest initiators only: the predecessor analysis conditions on
		// an uncompromised originator.
		sender := cfg.Workload.Sender
		if !cfg.Workload.FixedSender {
			sender = trace.NodeID(rng.Intn(n))
			for compromised[sender] {
				sender = trace.NodeID(rng.Intn(n))
			}
		}
		senders[s] = sender
		for r := 0; r < rounds; r++ {
			var id trace.MessageID
			var err error
			if materialize {
				id, err = nw.SendRoute(sender, crowdsRoute(routeRng, n, pf), nil)
			} else {
				id, err = nw.Inject(sender, fwd.FirstHop(sender), simnet.Packet{})
			}
			if err != nil {
				return Result{}, err
			}
			ids[s*rounds+r] = id
		}
	}
	goroutines := max(runtime.NumGoroutine()-baseGoroutines, 0)
	if err := nw.WaitSettled(settleTimeout); err != nil {
		return Result{}, err
	}
	elapsed := time.Since(start)

	// The predecessor-count likelihood ratio: per observed round the
	// initiator appears as the first collaborator's predecessor at rate
	// p1 = P(H1|H1+) while any other honest jondo appears at rate
	// q = (1−p1)/(n−c−1), so after counts m_v the posterior over honest
	// jondos is ∝ (p1/q)^{m_v}. Unobserved rounds are uninformative (the
	// observation event is initiator-independent).
	honest := n - c
	var logRatio float64 // ln(p1/q)
	if honest > 1 {
		logRatio = math.Log(theo * float64(honest-1) / (1 - theo))
	}
	conf := cfg.Workload.Confidence
	traces := trace.Collate(nw.Tuples())
	var (
		exposed, hits      int
		observedSum        int
		topCountIdentified int
		idCount, idRounds  int
		hSums              = make([]float64, rounds)
		deanonymized       int
		sum                stats.Summary
	)
	for s := 0; s < sessions; s++ {
		sender := senders[s]
		counts := make(map[trace.NodeID]int)
		// counted fixes the iteration order of the posterior sums (first
		// observation order), so results are bit-reproducible — ranging
		// over the counts map would reassociate the floating-point sums.
		var counted []trace.NodeID
		identifiedAt := 0
		final := 0.0
		for r := 0; r < rounds; r++ {
			mt := traces[ids[s*rounds+r]]
			if mt != nil && len(mt.Reports) > 0 {
				pred := mt.Reports[0].Pred
				exposed++
				observedSum++
				if pred == sender {
					hits++
				}
				if counts[pred] == 0 {
					counted = append(counted, pred)
				}
				counts[pred]++
			}
			h, top, mass := countPosterior(counts, counted, honest, logRatio)
			hSums[r] += h
			final = h
			if identifiedAt == 0 && conf > 0 && top == sender && mass >= conf {
				identifiedAt = r + 1
			}
		}
		sum.Add(final)
		if final < 1e-9 {
			deanonymized++
		}
		if identifiedAt > 0 {
			idCount++
			idRounds += identifiedAt
		}
		if topCountUnique(counts) == sender {
			topCountIdentified++
		}
	}
	for r := range hSums {
		hSums[r] /= float64(sessions)
	}
	okPI, err := crowds.ProbableInnocence(n, c, pf)
	if err != nil {
		return Result{}, err
	}
	hEvent, err := crowds.EventEntropy(n, c, pf)
	if err != nil {
		return Result{}, err
	}

	res := Result{
		Estimated:    true,
		Trials:       sessions,
		MaxH:         entropy.Max(n),
		Deanonymized: deanonymized,
		Kernel:       kernelStats(nw, goroutines, elapsed),
		Crowds: &CrowdsReport{
			Pf:                      pf,
			Observed:                exposed,
			Hits:                    hits,
			PredecessorProb:         theo,
			ProbableInnocence:       okPI,
			EventEntropy:            hEvent,
			TopCountIdentifiedShare: float64(topCountIdentified) / float64(sessions),
			MeanObservedRounds:      float64(observedSum) / float64(sessions),
		},
	}
	if cfg.Workload.degradation() {
		// Multi-round runs report the accumulated count-posterior entropy
		// (mean over sessions), like every other substrate.
		res.H = sum.Mean()
		res.StdErr = sum.StdErr()
		res.CI95 = sum.CI95()
		res.HRounds = hSums
		if conf > 0 {
			res.IdentifiedShare = float64(idCount) / float64(sessions)
			if idCount > 0 {
				res.MeanRoundsToIdentify = float64(idRounds) / float64(idCount)
			}
		}
	} else {
		// H carries the posterior entropy of the predecessor event — the
		// quantity the paper's §2 survey quotes for Crowds.
		res.H = hEvent
	}
	res.Normalized = entropy.Normalized(res.H, n)
	return res, nil
}

// crowdsRoute materializes one Crowds path as an explicit route: the
// initiator's mandatory first uniform hop, then coin-flip continuations —
// draw for draw the sequence crowds.Forwarder would make, but taken
// serially at injection time so multi-round runs are bit-reproducible.
func crowdsRoute(rng *rand.Rand, n int, pf float64) []trace.NodeID {
	route := []trace.NodeID{trace.NodeID(rng.Intn(n))}
	for rng.Float64() < pf {
		route = append(route, trace.NodeID(rng.Intn(n)))
	}
	return route
}

// countPosterior returns the entropy (bits), argmax node, and argmax mass
// of the predecessor-count posterior over the honest jondos: a jondo with
// count m carries weight exp(m·logRatio), uncounted jondos weight 1. The
// counted slice fixes the summation order. Cost is O(distinct counted
// nodes), independent of N.
func countPosterior(counts map[trace.NodeID]int, counted []trace.NodeID, honest int, logRatio float64) (float64, trace.NodeID, float64) {
	if honest <= 1 {
		// A single honest jondo is trivially identified.
		return 0, 0, 1
	}
	// W = Σ_v w_v with w_v = exp(m_v·logRatio); uncounted jondos have
	// w = 1. H = log2(W) − (Σ_v w_v·log2 w_v)/W, and uncounted jondos
	// contribute nothing to the weighted log sum.
	w := float64(honest - len(counts))
	var wLog float64
	top := trace.NodeID(-1)
	topW := 1.0 // any uncounted jondo, if every count is below weight 1
	for _, v := range counted {
		m := counts[v]
		wv := math.Exp(float64(m) * logRatio)
		w += wv
		wLog += wv * float64(m) * logRatio
		if wv > topW {
			topW, top = wv, v
		}
	}
	h := (math.Log(w) - wLog/w) / math.Ln2
	if h < 0 {
		h = 0 // guard against negative zero from rounding
	}
	return h, top, topW / w
}

// topCountUnique returns the node with the strictly highest predecessor
// count, or −1 when the maximum is tied or no observation was made.
func topCountUnique(counts map[trace.NodeID]int) trace.NodeID {
	best, bestCount, unique := trace.NodeID(-1), -1, false
	// A strict maximum is reached (and ties rejected) whatever the sweep
	// order: the result is a pure function of the multiset of counts.
	//anonlint:allow detrand(strict argmax with tie rejection is order-independent)
	for v, m := range counts {
		switch {
		case m > bestCount:
			best, bestCount, unique = v, m, true
		case m == bestCount:
			unique = false
		}
	}
	if !unique {
		return trace.NodeID(-1)
	}
	return best
}

// kernelStats snapshots the network's kernel counters into the Result
// form shared by every testbed substrate.
func kernelStats(nw *simnet.Network, goroutines int, elapsed time.Duration) *KernelStats {
	m := nw.Metrics()
	k := &KernelStats{
		Shards:       m.Shards,
		Events:       m.Events,
		BatchFlushes: m.BatchFlushes,
		Churn:        m.Churn,
		Goroutines:   goroutines,
	}
	if s := elapsed.Seconds(); s > 0 {
		k.EventsPerSec = float64(m.Events) / s
	}
	return k
}

func init() { Register(testbedBackend{}) }
