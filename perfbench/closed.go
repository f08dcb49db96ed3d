package main

import (
	"fmt"
	"time"

	"anonmix/internal/scenario"
	"anonmix/internal/stats"
)

// The closed-loop runner shared by design, sessions, and churn: one caller
// issues op i+1 only after op i has returned, so a slower program receives
// less load and the run measures completed ops per second and per-op
// latency.

// setupReps is how many times a run repeats its set-up; setup_s is the
// median. The first repetition is timed from process start.
const setupReps = 9

// opOut is one completed op.
type opOut struct {
	// canon is the op's canonical output, folded into the run digest.
	canon []byte
	// check verifies the output; it runs after the measured window. It
	// should hold only the op's inputs and outputs: every op of the run
	// waits for verification, and what the checks hold is counted in
	// peak_rss_mib.
	check func() error
	// probe times extra calls into the op's layers; traced ops only.
	probe func(tr *tracer, op, parent int) error
	// val carries what the workload's layer metrics need.
	val any

	index  int
	traced bool
}

type closedSpec struct {
	// setup runs one repetition of the workload's set-up.
	setup func() error
	// beforeOp, when set, runs before op i, outside its timing.
	beforeOp func(i int)
	// op runs op i; a non-nil tr records its spans under tr.root.
	op func(i int, tr *tracer) (opOut, error)
	// digestOps is how many leading ops the output digest covers; every
	// run of the workload must complete at least that many.
	digestOps int
	// cycle is how many ops cover every op shape of the workload once;
	// cpu_ms_per_op is taken over whole cycles.
	cycle int
	// layers adds the workload's layer metrics from the traced ops.
	layers func(tr *tracer, traced []opOut, rep *report)
}

// timeSetup runs setup setupReps times and sets setup_s to the median
// duration in seconds. Only the first repetition sees a cold process
// (page faults, heap growth, first-use initialization); it is timed from
// process start and noted beside the median.
func timeSetup(rep *report, setup func() error) error {
	var reps []float64
	for k := 0; k < setupReps; k++ {
		t0 := time.Now()
		if k == 0 {
			t0 = processStart
		}
		if err := setup(); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		reps = append(reps, time.Since(t0).Seconds())
	}
	rep.endToEnd["setup_s"] = median(reps)
	rep.notes["setup_s"] = fmt.Sprintf("median of %d; the first, from process start: %.4g s", setupReps, reps[0])
	return nil
}

func runClosed(p params, spec closedSpec) (*report, error) {
	rep := newReport()
	if err := timeSetup(rep, spec.setup); err != nil {
		return nil, err
	}

	var (
		tr       *tracer
		rw       *runtimeWindow
		cache    scenario.EngineCacheStats
		lat      []float64 // untraced op latencies, ms
		opCPU    []float64 // untraced op CPU times by op index, ms; -1 for others
		opSpans  []float64 // traced op latencies, ms
		outs     []opOut
		start    = time.Now()
		steal    = startSteal()
		cpu0     = cpuTime()
		deadline = start.Add(p.window())
		half     = start.Add(p.window() / 2)
	)
	for i := 0; time.Now().Before(deadline); i++ {
		if p.traced && tr == nil && !time.Now().Before(half) {
			tr = newTracer()
			rw = startRuntimeWindow()
		}
		rep.attempted++
		if spec.beforeOp != nil {
			spec.beforeOp(i)
		}
		var before scenario.EngineCacheStats
		if tr != nil {
			before = scenario.CacheStats()
			tr.root = tr.begin("op", i, -1)
		}
		opCPU = append(opCPU, -1)
		c0 := cpuTime()
		t0 := time.Now()
		out, err := spec.op(i, tr)
		d := time.Since(t0)
		c := cpuTime() - c0
		if tr != nil {
			tr.end(tr.root)
			delta := scenario.CacheStats().Delta(before)
			cache.Hits += delta.Hits
			cache.Misses += delta.Misses
			cache.DeltaDerived += delta.DeltaDerived
			cache.Evictions += delta.Evictions
		}
		if err != nil {
			rep.fail("op %d: %v", i, err)
			continue
		}
		out.index, out.traced = i, tr != nil
		if tr == nil {
			lat = append(lat, ms(d))
			opCPU[i] = ms(c)
		} else {
			opSpans = append(opSpans, ms(d))
			if out.probe != nil {
				pid := tr.begin("probe", i, -1)
				err := out.probe(tr, i, pid)
				tr.end(pid)
				if err != nil {
					rep.fail("op %d probe: %v", i, err)
				}
			}
		}
		out.probe = nil // release what it holds while the op awaits its check
		outs = append(outs, out)
	}
	window := time.Since(start)
	cpu := cpuTime() - cpu0
	steal.note(rep)
	rep.endToEnd["peak_rss_mib"] = peakRSSMiB()
	var traced []opOut
	if rw != nil {
		rw.finish(len(opSpans), rep.layers)
	}

	dg := newDigester(spec.digestOps)
	good := 0
	for _, out := range outs {
		if err := out.check(); err != nil {
			rep.fail("op %d: wrong answer: %v", out.index, err)
			continue
		}
		good++
		dg.add(out.index, out.canon)
		if out.traced {
			traced = append(traced, out)
		}
	}
	dg.finish(rep)

	if p.traced {
		rep.tracer = tr
		cacheLayers(rep, cache, len(opSpans))
		if len(lat) > 0 && len(opSpans) > 0 {
			rep.layers["trace.overhead_ratio"] = median(opSpans)/median(lat) - 1
		}
		if tr != nil {
			rep.layers["trace.spans"] = float64(len(tr.closed()))
			spec.layers(tr, traced, rep)
		}
		return rep, nil
	}
	latencyMetrics(rep, lat)
	rep.endToEnd["ops_per_s"] = float64(good) / window.Seconds()
	if perOp, cycles := cyclesCPU(opCPU, spec.cycle); cycles > 0 {
		rep.endToEnd["cpu_ms_per_op"] = perOp
		rep.notes["cpu_ms_per_op"] = fmt.Sprintf("median of %d whole cycles of %d ops", cycles, spec.cycle)
	} else {
		rep.endToEnd["cpu_ms_per_op"] = ms(cpu) / float64(max(len(outs), 1))
		rep.notes["cpu_ms_per_op"] = fmt.Sprintf("over the window: no whole cycle of %d ops", spec.cycle)
	}
	rep.endToEnd["error_ratio"] = float64(rep.failed) / float64(max(rep.attempted, 1))
	return rep, nil
}

// cyclesCPU returns the median CPU time per op of the complete cycles in
// opCPU (ops 0..cycle-1, cycle..2·cycle-1, ...; a cycle with a failed op
// is skipped) and how many cycles it took the median over. Every cycle
// runs the same op shapes, so the figure does not depend on where the
// window cut the op stream, and the median drops a cycle that a host
// stall or a garbage-collection burst fell into.
func cyclesCPU(opCPU []float64, cycle int) (float64, int) {
	var sums []float64
next:
	for k := 0; cycle > 0 && (k+1)*cycle <= len(opCPU); k++ {
		sum := 0.0
		for _, c := range opCPU[k*cycle : (k+1)*cycle] {
			if c < 0 {
				continue next
			}
			sum += c
		}
		sums = append(sums, sum/float64(cycle))
	}
	if len(sums) == 0 {
		return 0, 0
	}
	return median(sums), len(sums)
}

// cacheLayers reports the engine-cache counters of a traced window per
// op, and its hit ratio.
func cacheLayers(rep *report, cache scenario.EngineCacheStats, ops int) {
	n := float64(max(ops, 1))
	rep.layers["scenario.engine_hits"] = float64(cache.Hits) / n
	rep.layers["scenario.engine_misses"] = float64(cache.Misses) / n
	rep.layers["scenario.engine_delta_derived"] = float64(cache.DeltaDerived) / n
	rep.layers["scenario.engine_evictions"] = float64(cache.Evictions) / n
	if cache.Hits+cache.Misses > 0 {
		rep.layers["scenario.engine_hit_ratio"] = float64(cache.Hits) / float64(cache.Hits+cache.Misses)
	}
}

// latencyMetrics sets p50_ms and tail_ms from per-op latencies in ms.
func latencyMetrics(rep *report, lat []float64) {
	rep.endToEnd["p50_ms"] = median(lat)
	rep.notes["p50_ms"] = fmt.Sprintf("of %d", len(lat))
	if t, ok := tailOf(lat); ok && t.percentile >= 90 {
		rep.endToEnd["tail_ms"] = t.value
		rep.notes["tail_ms"] = t.String()
	} else if len(lat) > 0 {
		// Too few ops to leave tailBeyond samples above p90: the run
		// cannot support a tail percentile, so report its slowest op.
		rep.endToEnd["tail_ms"] = sorted(lat)[len(lat)-1]
		rep.notes["tail_ms"] = fmt.Sprintf("max of %d: too few ops for a p90 with %d beyond", len(lat), tailBeyond)
	}
}

// slot returns op i's combination out of n: the ops run through every
// combination once per cycle of n ops, in an order shuffled from the seed,
// so that runs with different seeds cover the same mix of op shapes.
func slot(seed int64, i, n int) int {
	rng := stats.NewRand(stats.ForkSeed(seed, int64(1<<56+i/n)))
	return rng.Perm(n)[i%n]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
