package main

import (
	"fmt"
	"math"
	"runtime"
	"strconv"
	"time"

	"anonmix/internal/faults"
	"anonmix/internal/pathsel"
	"anonmix/internal/scenario"
	"anonmix/internal/stats"
)

// churn: closed loop, one caller. Each op is one testbed run at N = 10⁶
// over a seeded 2–4-epoch timeline (joins, leaves, creeping compromise)
// with link loss and the retransmit policy, on churnMessages messages per
// epoch. The epoch count cycles 2, 3, 4 with the op index, so every run
// sees the same mix of timeline lengths.

const (
	churnN        = 1_000_000
	churnC        = 1000
	churnStrategy = "uniform:1,7"
	churnMessages = 1000
	churnLoss     = 0.05
	// churnCycle ops run every epoch count (2, 3, 4) once.
	churnCycle = 3
)

func churnTimelineAt(seed int64, i int) []scenario.Epoch {
	rng := stats.NewRand(stats.ForkSeed(seed, int64(i)))
	epochs := []scenario.Epoch{{Messages: churnMessages}}
	for e := 1; e < 2+i%churnCycle; e++ {
		epochs = append(epochs, scenario.Epoch{
			Messages:   churnMessages,
			Join:       rng.Intn(2001),
			Leave:      rng.Intn(1001),
			Compromise: rng.Intn(201),
		})
	}
	return epochs
}

func churnConfig(n, c int, timeline []scenario.Epoch, seed int64) scenario.Config {
	return scenario.Config{
		N:            n,
		Backend:      scenario.BackendTestbed,
		StrategySpec: churnStrategy,
		Adversary:    scenario.Adversary{Count: c},
		Timeline:     timeline,
		Faults:       &faults.Plan{LinkLoss: churnLoss},
		Reliability:  faults.Reliability{Policy: faults.PolicyRetransmit},
		Workload:     scenario.Workload{Seed: seed},
	}
}

// churnVal is what the layer metrics read from a churn op.
type churnVal struct {
	kernel             scenario.KernelStats
	delivery, attempts float64
	// statesAllocMiB is what the probe's TimelineStates call allocated.
	statesAllocMiB float64
}

func runChurn(p params) (*report, error) {
	strat, err := pathsel.Lookup(churnStrategy)
	if err != nil {
		return nil, err
	}
	spec := closedSpec{
		digestOps: 3,
		cycle:     churnCycle,
		setup: func() error {
			// Warm the testbed, fault, and analysis paths on a small
			// population, and the exact engines the verification reads.
			scenario.ResetEngines()
			_, err := scenario.Run(churnConfig(churnN/5, churnC/5, churnTimelineAt(p.seed, -2), p.seed))
			if err != nil {
				return err
			}
			e, err := scenario.Engine(churnN, churnC)
			if err != nil {
				return err
			}
			_, err = e.AnonymityDegree(strat.Length)
			return err
		},
		op: func(i int, tr *tracer) (opOut, error) {
			timeline := churnTimelineAt(p.seed, i)
			sp := tr.child("scenario.run_testbed", i)
			res, err := scenario.Run(churnConfig(churnN, churnC, timeline, stats.ForkSeed(p.seed, int64(1<<40+i))))
			tr.end(sp)
			if err != nil {
				return opOut{}, err
			}
			if res.Kernel == nil {
				return opOut{}, fmt.Errorf("testbed result carries no kernel stats")
			}
			canon := strconv.AppendFloat(nil, res.H, 'g', -1, 64)
			for _, x := range []float64{res.StdErr, res.DeliveryRate, res.MeanAttempts, res.HDegraded, float64(res.Kernel.Events)} {
				canon = append(canon, ' ')
				canon = strconv.AppendFloat(canon, x, 'g', -1, 64)
			}
			val := &churnVal{kernel: *res.Kernel, delivery: res.DeliveryRate, attempts: res.MeanAttempts}
			return opOut{
				canon: canon,
				check: func() error { return checkChurn(timeline, res, strat) },
				probe: func(tr *tracer, i, parent int) (err error) {
					val.statesAllocMiB, err = churnProbe(tr, i, parent, timeline)
					return err
				},
				val: val,
			}, nil
		},
		layers: churnLayers,
	}
	return runClosed(p, spec)
}

// checkChurn compares the testbed's H with the exact message-weighted
// mixture of per-epoch H*(S) at the epochs' (N, C), within the lossy
// timeline suite's 4σ + 0.03, and checks that the delivery rate and the
// attempts per message are in range for the loss rate.
func checkChurn(timeline []scenario.Epoch, res scenario.Result, strat pathsel.Strategy) error {
	n, c := churnN, churnC
	var want, total float64
	for _, ep := range timeline {
		n += ep.Join - ep.Leave
		c += ep.Compromise - ep.Recover
		e, err := scenario.Engine(n, c)
		if err != nil {
			return err
		}
		h, err := e.AnonymityDegree(strat.Length)
		if err != nil {
			return err
		}
		want += float64(ep.Messages) * h
		total += float64(ep.Messages)
	}
	want /= total
	if d := math.Abs(res.H - want); d > 4*res.StdErr+0.03 {
		return fmt.Errorf("H = %v ± %v, exact mixture %v", res.H, res.StdErr, want)
	}
	if res.DeliveryRate < 0.95 || res.DeliveryRate > 1 {
		return fmt.Errorf("delivery rate %v out of range", res.DeliveryRate)
	}
	// Seven hops at 5% loss with unbounded-enough retransmission cost
	// about 1/(1−0.05) transmissions per hop.
	if res.MeanAttempts < 1 || res.MeanAttempts > 2 {
		return fmt.Errorf("attempts per message %v out of range", res.MeanAttempts)
	}
	return nil
}

// churnProbe times the membership schedule on its own and returns what it
// allocated, in MiB.
func churnProbe(tr *tracer, i, parent int, timeline []scenario.Epoch) (float64, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sp := tr.begin("scenario.timeline_states", i, parent)
	_, err := scenario.TimelineStates(churnN, churnC, timeline)
	tr.end(sp)
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20), err
}

func churnLayers(tr *tracer, traced []opOut, rep *report) {
	msec := time.Millisecond
	states := tr.medianOf("scenario.timeline_states", msec)
	run := tr.medianOf("scenario.run_testbed", msec)
	rep.layers["scenario.timeline_states_ms"] = states
	rep.layers["scenario.run_testbed_ms"] = run
	if run > 0 {
		rep.layers["scenario.timeline_states_share"] = states / run
	}
	var events, churn, busy, delivery, attempts, allocs []float64
	for _, out := range traced {
		v := out.val.(*churnVal)
		allocs = append(allocs, v.statesAllocMiB)
		events = append(events, float64(v.kernel.Events))
		churn = append(churn, float64(v.kernel.Churn))
		if v.kernel.EventsPerSec > 0 {
			busy = append(busy, 1e3*float64(v.kernel.Events)/v.kernel.EventsPerSec)
		}
		delivery = append(delivery, v.delivery)
		attempts = append(attempts, v.attempts)
	}
	rep.layers["simnet.events"] = medianOr0(events)
	rep.layers["simnet.churn"] = medianOr0(churn)
	rep.layers["simnet.busy_ms"] = medianOr0(busy)
	if b := medianOr0(busy); b > 0 {
		rep.layers["simnet.events_per_s"] = medianOr0(events) / (b / 1e3)
	}
	rep.layers["faults.delivery_rate"] = medianOr0(delivery)
	rep.layers["faults.attempts_per_msg"] = medianOr0(attempts)
	rep.layers["scenario.timeline_states_alloc_mib"] = medianOr0(allocs)
}
