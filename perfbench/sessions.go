package main

import (
	"fmt"
	"math"
	"strconv"
	"time"

	"anonmix/internal/adversary"
	"anonmix/internal/montecarlo"
	"anonmix/internal/pathsel"
	"anonmix/internal/scenario"
	"anonmix/internal/stats"
	"anonmix/internal/trace"
)

// sessions: closed loop, one caller. Each op is one Monte-Carlo
// repeated-communication run at small N: sessionsPerOp sessions of 8–32
// rounds, on a static config or a 2–3-epoch creeping-compromise timeline.
// Configs come from a family of sessionFamily base systems, one per
// stratum of N, and the ops cycle through every (system, variant) pair in
// a seeded order, so every run covers the same mix; engines are hot after
// set-up.

const (
	sessionFamily = 6
	sessionsPerOp = 1000
	// sessionVariants: static with 8, 16, 32 rounds; timelines of 2 and 3
	// epochs of 8 rounds.
	sessionVariants = 5
	mcWorkers       = 2
)

type sessionBase struct {
	n, c     int
	strategy string
}

// sessionStrategies gives each family member its path-length strategy.
var sessionStrategies = []string{"fixed:3", "uniform:1,5", "uniform:2,6", "fixed:4", "uniform:1,7", "uniform:3,5"}

func sessionFamilyOf(seed int64) []sessionBase {
	fam := make([]sessionBase, sessionFamily)
	for f := range fam {
		rng := stats.NewRand(stats.ForkSeed(seed, int64(1<<32+f)))
		// N spans [20, 300] on a log scale, one family member per stratum.
		n := int(math.Round(20 * math.Pow(15, (float64(f)+0.5)/sessionFamily)))
		c := max(1, n/40+rng.Intn(max(1, n/10-n/40)))
		fam[f] = sessionBase{n: n, c: c, strategy: sessionStrategies[f]}
	}
	return fam
}

type sessionOp struct {
	base    sessionBase
	family  int
	variant int
	seed    int64
}

func sessionOpAt(seed int64, fam []sessionBase, i int) sessionOp {
	c := slot(seed, i, len(fam)*sessionVariants)
	f, v := c/sessionVariants, c%sessionVariants
	return sessionOp{base: fam[f], family: f, variant: v, seed: stats.ForkSeed(seed, int64(1<<40+i))}
}

// config builds the op's scenario config on the given backend with the
// given session count and seed.
func (op sessionOp) config(backend scenario.BackendKind, sessions int, seed int64) (scenario.Config, error) {
	cfg := scenario.Config{
		N:            op.base.n,
		Backend:      backend,
		StrategySpec: op.base.strategy,
		Adversary:    scenario.Adversary{Count: op.base.c},
		Workload:     scenario.Workload{Messages: sessions, Seed: seed, Workers: mcWorkers},
	}
	switch op.variant {
	case 0, 1, 2:
		cfg.Workload.Rounds = 8 << op.variant
	default:
		k := 1 + (op.base.n-op.base.c)/20
		spec := fmt.Sprintf("rounds=8;rounds=8,comp=%d", k)
		if op.variant == 4 {
			spec += fmt.Sprintf(";rounds=8,comp=%d", k)
		}
		timeline, err := scenario.ParseTimeline(spec)
		if err != nil {
			return scenario.Config{}, err
		}
		cfg.Timeline = timeline
	}
	return cfg, nil
}

func (op sessionOp) rounds() int {
	if op.variant < 3 {
		return 8 << op.variant
	}
	return 8 * (op.variant - 1)
}

func runSessions(p params) (*report, error) {
	fam := sessionFamilyOf(p.seed)
	refs := newSessionRefs(p.seed)
	spec := closedSpec{
		digestOps: 100,
		cycle:     sessionFamily * sessionVariants,
		setup: func() error {
			scenario.ResetEngines()
			for f := range fam {
				for v := 0; v < sessionVariants; v++ {
					op := sessionOp{base: fam[f], family: f, variant: v}
					cfg, err := op.config(scenario.BackendMonteCarlo, 64, p.seed)
					if err != nil {
						return err
					}
					if _, err := scenario.Run(cfg); err != nil {
						return err
					}
				}
			}
			return nil
		},
		op: func(i int, tr *tracer) (opOut, error) {
			op := sessionOpAt(p.seed, fam, i)
			cfg, err := op.config(scenario.BackendMonteCarlo, sessionsPerOp, op.seed)
			if err != nil {
				return opOut{}, err
			}
			sp := tr.child("scenario.run_mc", i)
			res, err := scenario.Run(cfg)
			tr.end(sp)
			if err != nil {
				return opOut{}, err
			}
			canon := strconv.AppendFloat(nil, res.H, 'g', -1, 64)
			for _, h := range res.HRounds {
				canon = append(canon, ' ')
				canon = strconv.AppendFloat(canon, h, 'g', -1, 64)
			}
			return opOut{
				canon: canon,
				check: func() error { return refs.check(op, res) },
				probe: func(tr *tracer, i, parent int) error { return sessionProbe(tr, i, parent, op) },
				val:   sessionsPerOp * op.rounds(),
			}, nil
		},
		layers: func(tr *tracer, traced []opOut, rep *report) {
			us := time.Microsecond
			rep.layers["scenario.run_mc_ms"] = tr.medianOf("scenario.run_mc", time.Millisecond)
			rep.layers["montecarlo.session_us"] = tr.medianOf("montecarlo.session", us)
			rep.layers["pathsel.select_ns"] = tr.medianOf("pathsel.select", time.Nanosecond) / probeReps
			rep.layers["adversary.entropy_ns"] = tr.medianOf("adversary.entropy", time.Nanosecond) / probeReps
			rep.layers["adversary.fold_ns"] = tr.medianOf("adversary.fold", time.Nanosecond) / probeReps
			rep.layers["pathsel.lookup_us"] = tr.medianOf("pathsel.lookup", us) / probeReps
			rep.layers["scenario.engine_hit_us"] = tr.medianOf("scenario.engine_lookup_hot", us) / probeReps
			var trials int
			var busy time.Duration
			for _, d := range tr.durations("scenario.run_mc") {
				busy += d
			}
			for _, out := range traced {
				trials += out.val.(int)
			}
			if busy > 0 {
				rep.layers["montecarlo.trials_per_s"] = float64(trials) / busy.Seconds()
			}
		},
	}
	return runClosed(p, spec)
}

// sessionRefs holds the exact backend's reference values, computed once
// per distinct config during verification.
type sessionRefs struct {
	seed   int64
	single map[int]float64 // family -> single-shot exact H*(S)
	runs   map[[2]int]scenario.Result
}

func newSessionRefs(seed int64) *sessionRefs {
	return &sessionRefs{seed: seed, single: map[int]float64{}, runs: map[[2]int]scenario.Result{}}
}

// check compares an op with the exact backend: H₁ with the closed-form
// single-shot H*(S) of the first epoch, and the final H within the
// agreement suites' 4(σ + σ_ref) + 0.1 of the exact backend's run of the
// same config.
func (r *sessionRefs) check(op sessionOp, res scenario.Result) error {
	if len(res.HRounds) != op.rounds() {
		return fmt.Errorf("curve has %d rounds, want %d", len(res.HRounds), op.rounds())
	}
	h1, ok := r.single[op.family]
	if !ok {
		ex, err := scenario.Run(scenario.Config{N: op.base.n, StrategySpec: op.base.strategy, Adversary: scenario.Adversary{Count: op.base.c}})
		if err != nil {
			return err
		}
		h1 = ex.H
		r.single[op.family] = h1
	}
	// H₁ averages one round's entropy over the sessions, and each session's
	// value lies in [0, log2 N], so H₁'s standard error is at most
	// log2(N)/(2√sessions); Result.StdErr describes the last round only. A
	// run makes thousands of these checks, so the rule is 6σ, not the
	// agreement suite's 4σ over a handful of configs.
	sigma1 := math.Log2(float64(op.base.n)) / (2 * math.Sqrt(sessionsPerOp))
	if d := math.Abs(res.HRounds[0] - h1); d > 6*sigma1+0.1 {
		return fmt.Errorf("H_1 = %v, exact single-shot %v", res.HRounds[0], h1)
	}
	key := [2]int{op.family, op.variant}
	ref, ok := r.runs[key]
	if !ok {
		cfg, err := op.config(scenario.BackendExact, sessionsPerOp, stats.ForkSeed(r.seed, int64(1<<48+op.family*sessionVariants+op.variant)))
		if err != nil {
			return err
		}
		if ref, err = scenario.Run(cfg); err != nil {
			return err
		}
		r.runs[key] = ref
	}
	if d := math.Abs(res.H - ref.H); d > 4*(res.StdErr+ref.StdErr)+0.1 {
		return fmt.Errorf("H = %v ± %v, exact backend %v ± %v", res.H, res.StdErr, ref.H, ref.StdErr)
	}
	return nil
}

// probeReps is how many calls one probe span times for the calls too
// short to time one by one.
const probeReps = 256

// sessionProbe times the layers under one session on the op's first
// epoch: whole arena sessions, path selection, per-trace entropy, and one
// accumulator fold (the phased accumulator for timeline ops).
func sessionProbe(tr *tracer, i, parent int, op sessionOp) error {
	cfg := scenario.Config{N: op.base.n, StrategySpec: op.base.strategy, Adversary: scenario.Adversary{Count: op.base.c}}
	var strat pathsel.Strategy
	if _, err := tr.timeN("pathsel.lookup", i, parent, probeReps, func() (err error) {
		strat, err = pathsel.Lookup(op.base.strategy)
		return err
	}); err != nil {
		return err
	}
	if _, err := tr.timeN("scenario.engine_lookup_hot", i, parent, probeReps, func() error {
		_, err := scenario.Engine(op.base.n, op.base.c)
		return err
	}); err != nil {
		return err
	}
	analyst, err := scenario.NewAnalyst(cfg)
	if err != nil {
		return err
	}
	sel, err := pathsel.NewSelector(op.base.n, strat)
	if err != nil {
		return err
	}
	arena, err := montecarlo.NewSessionArena(analyst, sel, op.rounds())
	if err != nil {
		return err
	}
	sender := trace.NodeID(op.base.n - 1) // honest: the first c nodes are compromised
	for k := 0; k < 8; k++ {
		rng := stats.NewStream(op.seed, int64(k))
		if _, err := tr.timeN("montecarlo.session", i, parent, 1, func() error {
			_, _, err := arena.Session(&rng, sender, 0)
			return err
		}); err != nil {
			return err
		}
	}
	sampler, err := sel.NewSampler()
	if err != nil {
		return err
	}
	rng := stats.NewStream(op.seed, 1<<20)
	traces := make([]*trace.MessageTrace, probeReps)
	for k := range traces {
		path, err := sampler.SelectPath(&rng, sender)
		if err != nil {
			return err
		}
		traces[k] = montecarlo.Synthesize(trace.MessageID(k), sender, path, analyst.Compromised)
	}
	if _, err := tr.timeN("pathsel.select", i, parent, probeReps, func() error {
		_, err := sampler.SelectPath(&rng, sender)
		return err
	}); err != nil {
		return err
	}
	var sc adversary.Scratch
	k := 0
	if _, err := tr.timeN("adversary.entropy", i, parent, probeReps, func() error {
		_, err := analyst.EntropyScratch(traces[k%probeReps], &sc)
		k++
		return err
	}); err != nil {
		return err
	}
	k = 0
	if op.variant < 3 {
		acc, err := adversary.NewAccumulator(analyst)
		if err != nil {
			return err
		}
		_, err = tr.timeN("adversary.fold", i, parent, probeReps, func() error {
			if k%op.rounds() == 0 {
				acc.Reset()
			}
			err := acc.ObserveScratch(traces[k%probeReps], &sc)
			k++
			return err
		})
		return err
	}
	acc, err := adversary.NewPhasedAccumulator(op.base.n)
	if err != nil {
		return err
	}
	live := make([]trace.NodeID, op.base.n)
	for j := range live {
		live[j] = trace.NodeID(j)
	}
	_, err = tr.timeN("adversary.fold", i, parent, probeReps, func() error {
		if k%op.rounds() == 0 {
			acc.Reset()
		}
		err := acc.ObserveScratch(analyst, traces[k%probeReps], live, &sc)
		k++
		return err
	})
	return err
}
