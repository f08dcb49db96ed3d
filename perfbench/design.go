package main

import (
	"fmt"
	"math"
	"strconv"
	"time"

	"anonmix/internal/dist"
	"anonmix/internal/events"
	"anonmix/internal/optimize"
	"anonmix/internal/scenario"
	"anonmix/internal/stats"
)

// design: closed loop, one caller. Each op is a mean-constrained
// optimize.Maximize or optimize.MaximizeTimeline query whose engines come
// from scenario.Engine. N is drawn log-uniformly from 10² to 10⁵, so the
// lookups miss and fill the engine LRU by delta derivation. A third of the
// ops are 2–3-epoch timelines. The ops cycle through every (kind, support
// bound, stratum of N) combination in a seeded order, so every run covers
// the same mix of op shapes; each cycle starts from a cold cache.

// designSupports are the support bounds the ops cycle through.
var designSupports = []int{6, 8, 10}

type designOp struct {
	lo, hi int
	mean   int
	// epochs holds (N, C) per epoch; one epoch for a static op.
	epochs [][2]int
}

// designStrata splits log10 N ∈ [2, 5] into equal strata.
const designStrata = 3

// designKinds are the op kinds one cycle of ops covers: the number of
// epochs, where one epoch is a static Maximize query and more are a
// MaximizeTimeline query over a drifting population.
var designKinds = []int{1, 1, 1, 1, 2, 3}

// designCycle is how many ops cover every (kind, support bound, stratum)
// combination once. Each cycle is one design session: it starts from a
// cold engine cache, so the memory and the cache work of a run do not
// grow with the number of ops the run completes.
var designCycle = len(designKinds) * len(designSupports) * designStrata

func designOpAt(seed int64, i int) designOp {
	rng := stats.NewRand(stats.ForkSeed(seed, int64(i)))
	k := slot(seed, i, designCycle)
	epochs := designKinds[k%len(designKinds)]
	k /= len(designKinds)
	hi := designSupports[k%len(designSupports)]
	stratum := k / len(designSupports)
	n := int(math.Round(math.Pow(10, 2+3*(float64(stratum)+rng.Float64())/designStrata)))
	c := 1 + rng.Intn(max(1, n/50))
	op := designOp{lo: 1, hi: hi, mean: hi / 2, epochs: [][2]int{{n, c}}}
	for e := 1; e < epochs; e++ {
		prev := op.epochs[e-1]
		dn := rng.Intn(n/20+1) - n/40
		dc := rng.Intn(3)
		op.epochs = append(op.epochs, [2]int{max(prev[0]+dn, 4*hi), min(prev[1]+dc, prev[0]/4)})
	}
	return op
}

// designEngine looks up an engine through the scenario cache and, when
// traced, records the lookup as a hit, delta derivation, or cold miss.
func designEngine(tr *tracer, op, n, c int) (*events.Engine, error) {
	if tr == nil {
		return scenario.Engine(n, c)
	}
	before := scenario.CacheStats()
	t0 := time.Now()
	e, err := scenario.Engine(n, c)
	t1 := time.Now()
	d := scenario.CacheStats().Delta(before)
	name := "scenario.engine_hit"
	switch {
	case d.DeltaDerived > 0:
		name = "scenario.engine_delta"
	case d.Misses > 0:
		name = "scenario.engine_miss"
	}
	tr.record(name, op, tr.root, t0, t1)
	return e, err
}

// designVal is what the layer metrics read from a design op.
type designVal struct {
	solves, iterations, converged int
}

func runDesign(p params) (*report, error) {
	spec := closedSpec{
		digestOps: 24,
		cycle:     designCycle,
		setup: func() error {
			// One solve per support bound warms the optimizer; the engine
			// is dropped when op 0 starts its session from a cold cache.
			scenario.ResetEngines()
			e, err := scenario.Engine(1000, 10)
			if err != nil {
				return err
			}
			for _, hi := range designSupports {
				if _, err := optimize.Maximize(optimize.Problem{Engine: e, Lo: 1, Hi: hi, Mean: float64(hi / 2)}); err != nil {
					return err
				}
			}
			return nil
		},
		beforeOp: func(i int) {
			if i%designCycle == 0 {
				scenario.ResetEngines()
			}
		},
		op: func(i int, tr *tracer) (opOut, error) {
			return designRun(designOpAt(p.seed, i), i, tr)
		},
		layers: designLayers,
	}
	return runClosed(p, spec)
}

func designRun(op designOp, i int, tr *tracer) (opOut, error) {
	engines := make([]*events.Engine, len(op.epochs))
	for k, nc := range op.epochs {
		e, err := designEngine(tr, i, nc[0], nc[1])
		if err != nil {
			return opOut{}, err
		}
		engines[k] = e
	}
	mean := float64(op.mean)
	sp := tr.child("optimize.solve", i)
	defer tr.end(sp)
	if len(op.epochs) == 1 {
		res, err := optimize.Maximize(optimize.Problem{Engine: engines[0], Lo: op.lo, Hi: op.hi, Mean: mean})
		if err != nil {
			return opOut{}, err
		}
		return opOut{
			canon: canonResult(nil, res),
			check: func() error { return checkDesign(op, res, nil) },
			probe: designProbe(op, engines[0]),
			val:   designVal{solves: 1, iterations: res.Iterations, converged: btoi(res.Converged)},
		}, nil
	}
	prob := optimize.TimelineProblem{Lo: op.lo, Hi: op.hi, Mean: mean}
	for _, e := range engines {
		prob.Epochs = append(prob.Epochs, optimize.EpochProblem{Engine: e, Weight: 1})
	}
	res, err := optimize.MaximizeTimeline(prob)
	if err != nil {
		return opOut{}, err
	}
	canon := canonResult(nil, res.Joint)
	val := designVal{solves: 1, iterations: res.Joint.Iterations, converged: btoi(res.Joint.Converged)}
	for _, r := range res.PerEpoch {
		canon = canonResult(canon, r)
		val.solves++
		val.iterations += r.Iterations
		val.converged += btoi(r.Converged)
	}
	return opOut{
		canon: canon,
		check: func() error { return checkDesign(op, res.Joint, res.PerEpoch) },
		probe: designProbe(op, engines[0]),
		val:   val,
	}, nil
}

// canonResult appends a solver result's exact digits.
func canonResult(b []byte, r optimize.Result) []byte {
	b = strconv.AppendFloat(b, r.H, 'g', -1, 64)
	b = append(b, ' ')
	b = strconv.AppendInt(b, int64(r.Dist.Lo), 10)
	for _, m := range r.Dist.Mass {
		b = append(b, ' ')
		b = strconv.AppendFloat(b, m, 'g', -1, 64)
	}
	return append(b, ';')
}

// checkFeasible checks a solver distribution: support within [lo, hi],
// unit mass, and the constrained mean.
func checkFeasible(d dist.PMF, op designOp) error {
	lo, hi := d.Support()
	if lo < op.lo || hi > op.hi {
		return fmt.Errorf("support [%d,%d] outside [%d,%d]", lo, hi, op.lo, op.hi)
	}
	sum := 0.0
	for _, m := range d.Mass {
		if m < -1e-12 {
			return fmt.Errorf("negative mass %v", m)
		}
		sum += m
	}
	if math.Abs(sum-1) > 1e-9 {
		return fmt.Errorf("mass sums to %v", sum)
	}
	if math.Abs(d.Mean()-float64(op.mean)) > 1e-6 {
		return fmt.Errorf("mean %v, constraint %d", d.Mean(), op.mean)
	}
	return nil
}

// scoreTol absorbs the rounding of two evaluations of the same objective.
const scoreTol = 1e-9

func checkStatic(e *events.Engine, op designOp, res optimize.Result) error {
	if err := checkFeasible(res.Dist, op); err != nil {
		return err
	}
	_, hu, err := optimize.BestUniform(e, op.mean, op.lo, op.hi)
	if err != nil {
		return err
	}
	if res.H < hu-scoreTol {
		return fmt.Errorf("H %v below the best uniform %v at mean %d", res.H, hu, op.mean)
	}
	return nil
}

// checkDesign verifies an op's answer on fresh engines, so that the ops
// waiting for verification hold no engine: res is the static solution or
// the joint timeline solution, perEpoch the timeline's per-epoch ones.
func checkDesign(op designOp, res optimize.Result, perEpoch []optimize.Result) error {
	var engines []*events.Engine
	prob := optimize.TimelineProblem{Lo: op.lo, Hi: op.hi, Mean: float64(op.mean)}
	for _, nc := range op.epochs {
		e, err := events.New(nc[0], nc[1])
		if err != nil {
			return err
		}
		engines = append(engines, e)
		prob.Epochs = append(prob.Epochs, optimize.EpochProblem{Engine: e, Weight: 1})
	}
	if len(engines) == 1 {
		return checkStatic(engines[0], op, res)
	}
	if err := checkFeasible(res.Dist, op); err != nil {
		return fmt.Errorf("joint: %w", err)
	}
	for k, r := range perEpoch {
		if err := checkStatic(engines[k], op, r); err != nil {
			return fmt.Errorf("epoch %d: %w", k, err)
		}
	}
	u, _, err := optimize.BestUniform(engines[0], op.mean, op.lo, op.hi)
	if err != nil {
		return err
	}
	hu, err := optimize.EvaluateTimeline(prob, u)
	if err != nil {
		return err
	}
	if res.H < hu-scoreTol {
		return fmt.Errorf("joint H %v below the uniform %v at mean %d", res.H, hu, op.mean)
	}
	return nil
}

// designProbe times the events layer on the op's first epoch: a fresh
// engine's construction, weight table, and degree, and a delta neighbor of
// the cached engine. It also times a now-hot cache lookup.
func designProbe(op designOp, cached *events.Engine) func(tr *tracer, i, parent int) error {
	return func(tr *tracer, i, parent int) error {
		n, c := op.epochs[0][0], op.epochs[0][1]
		var fresh *events.Engine
		if _, err := tr.timeN("events.new", i, parent, 1, func() (err error) {
			fresh, err = events.New(n, c)
			return err
		}); err != nil {
			return err
		}
		if _, err := tr.timeN("events.weights", i, parent, 1, func() error {
			_, err := fresh.Weights(op.lo, op.hi)
			return err
		}); err != nil {
			return err
		}
		u, err := dist.NewUniform(op.lo, op.hi)
		if err != nil {
			return err
		}
		if _, err := tr.timeN("events.degree", i, parent, 1, func() error {
			_, err := fresh.AnonymityDegree(u)
			return err
		}); err != nil {
			return err
		}
		if _, err := tr.timeN("events.neighbor", i, parent, 1, func() error {
			_, err := cached.Neighbor(1, 0)
			return err
		}); err != nil {
			return err
		}
		_, err = tr.timeN("scenario.engine_lookup_hot", i, parent, 1, func() error {
			_, err := scenario.Engine(n, c)
			return err
		})
		return err
	}
}

func designLayers(tr *tracer, traced []opOut, rep *report) {
	us := time.Microsecond
	rep.layers["scenario.engine_hit_us"] = tr.medianOf("scenario.engine_lookup_hot", us)
	rep.layers["scenario.engine_miss_us"] = tr.medianOf("scenario.engine_miss", us)
	rep.layers["scenario.engine_delta_us"] = tr.medianOf("scenario.engine_delta", us)
	rep.layers["events.new_us"] = tr.medianOf("events.new", us)
	rep.layers["events.neighbor_us"] = tr.medianOf("events.neighbor", us)
	rep.layers["events.weights_us"] = tr.medianOf("events.weights", us)
	rep.layers["events.degree_us"] = tr.medianOf("events.degree", us)
	rep.layers["optimize.solve_ms"] = tr.medianOf("optimize.solve", time.Millisecond)
	var v designVal
	for _, out := range traced {
		d := out.val.(designVal)
		v.solves += d.solves
		v.iterations += d.iterations
		v.converged += d.converged
	}
	if v.solves > 0 {
		rep.layers["optimize.iterations"] = float64(v.iterations) / float64(v.solves)
		rep.layers["optimize.converged_ratio"] = float64(v.converged) / float64(v.solves)
	}
}
