package scenario

// Fault-injected testbed execution. The kernel does the dropping,
// retransmitting, and crash handling (simnet with a faults.Plan wired into
// its config by faultNetConfig); runRoutedPhases drives the traffic, and
// this file owns what faults add on top of it:
//
//   - PolicyReroute's wave loop (rerouteWaves): after a phase settles,
//     drain the kernel's failure handoffs (TakeFailed), re-inject each
//     failed message from its original sender over a freshly drawn path,
//     and repeat until everything delivered or the attempt budget is
//     spent. normalizeFaults confines rerouting to static runs, so the
//     waves only ever follow the one phase.
//   - The two-faced measurement foldMessages takes: H over delivered
//     messages (the quantity the exact backend computes via the
//     effective-delivery length distribution) next to the retry-degraded
//     HDegraded, which folds the evidence every retransmission and failed
//     attempt leaked to compromised observers — partial traces analyzed
//     under the uncompromised-receiver model, since a failed attempt never
//     produced a receiver report.

import (
	"fmt"
	"sort"

	"anonmix/internal/adversary"
	"anonmix/internal/events"
	"anonmix/internal/simnet"
	"anonmix/internal/trace"
)

// faultNetConfig applies the scenario's fault plan to a kernel config.
// The plan's jitter adds to the workload's hop delay; everything else maps
// field for field.
func faultNetConfig(nwCfg *simnet.Config, cfg *Config) {
	if cfg.Faults == nil {
		return
	}
	nwCfg.LinkLoss = cfg.Faults.LinkLoss
	nwCfg.Crashes = cfg.Faults.Crashes
	nwCfg.Policy = cfg.Reliability.Policy
	nwCfg.MaxAttempts = cfg.Reliability.MaxAttempts
	nwCfg.RetryBackoff = cfg.Reliability.RetryBackoff
	nwCfg.MaxHopDelay += cfg.Faults.Jitter
}

// checkUnexpectedDrops fails the run on drop causes fault injection does
// not explain: loss and crash drops are the configured fault process, but
// a bad hop, a forwarder error, or an absent node is a real defect that
// must not hide behind the loss statistics.
func checkUnexpectedDrops(nw *simnet.Network) error {
	ds := nw.DropStats()
	// Sweep causes in sorted order so the same defect always surfaces
	// the same error, whatever the map iteration order.
	causes := make([]string, 0, len(ds.ByCause))
	for cause := range ds.ByCause {
		causes = append(causes, cause)
	}
	sort.Strings(causes)
	for _, cause := range causes {
		if n := ds.ByCause[cause]; n > 0 && cause != simnet.DropLoss && cause != simnet.DropCrash {
			return fmt.Errorf("scenario: testbed dropped %d packets with unexpected cause %q (samples: %v)",
				n, cause, ds.Samples)
		}
	}
	return nil
}

// sortedRetryObservations groups the kernel's retransmission observations
// by message, ordered by (time, observer) within each — a deterministic
// fold order under any shard interleaving.
func sortedRetryObservations(nw *simnet.Network) map[trace.MessageID][]trace.Tuple {
	obs := nw.RetryObservations()
	sort.Slice(obs, func(i, j int) bool {
		a, b := obs[i], obs[j]
		if a.Msg != b.Msg {
			return a.Msg < b.Msg
		}
		if a.Time != b.Time {
			return a.Time < b.Time
		}
		return a.Observer < b.Observer
	})
	out := make(map[trace.MessageID][]trace.Tuple)
	for _, t := range obs {
		out[t.Msg] = append(out[t.Msg], t)
	}
	return out
}

// truncateAtObserver returns the prefix of a delivered trace up to and
// including the named observer's report, with the receiver's report
// removed — the evidence state a retransmission at that observer leaked.
// Nil when the observer never reported (it should have: retry
// observations only come from compromised nodes that processed the
// packet).
func truncateAtObserver(mt *trace.MessageTrace, obs trace.NodeID) *trace.MessageTrace {
	for i, r := range mt.Reports {
		if r.Observer == obs {
			return &trace.MessageTrace{
				Msg:     mt.Msg,
				Reports: append([]trace.Tuple(nil), mt.Reports[:i+1]...),
			}
		}
	}
	return nil
}

// foldDegraded accumulates one delivered message's retry-degraded
// posterior into the caller's reusable accumulator (reset here): the full
// delivered trace through the accumulator's own analyst, then every
// leaked partial trace through the uncompromised-receiver analyst.
// Partials the model cannot classify (e.g. a lossy link whose target is
// itself compromised, breaking the witnessed-set arithmetic) are skipped —
// the conservative adversary discards what it cannot fit.
func foldDegraded(acc *adversary.Accumulator, analystU *adversary.Analyst,
	mt *trace.MessageTrace, partials []*trace.MessageTrace,
	sc *adversary.Scratch) (float64, error) {
	acc.Reset()
	if err := acc.ObserveScratch(mt, sc); err != nil {
		return 0, err
	}
	for _, pmt := range partials {
		if pmt == nil {
			continue
		}
		if err := acc.FoldObservation(analystU, pmt, sc); err != nil {
			continue
		}
	}
	h, _, _, err := acc.SnapshotFast()
	return h, err
}

// rerouteWaves runs PolicyReroute's waves once the injected traffic has
// settled: each failed message retries end to end from its original
// sender over a fresh path (retry re-injects slot i from the slot's own
// stream). TakeFailed returns message-sorted batches, so the waves' path
// draws — and with them the whole run — are deterministic under any shard
// interleaving.
func (tr *routedTraffic) rerouteWaves(cfg *Config, nw *simnet.Network,
	retry func(i int) (trace.MessageID, error)) error {
	for {
		// One checkpoint per rerouting wave.
		if err := cfg.checkCanceled(); err != nil {
			return err
		}
		reinjected := false
		for _, f := range nw.TakeFailed() {
			i, ok := tr.origin[f.Msg]
			if !ok {
				return fmt.Errorf("scenario: kernel handed back unknown message %d", f.Msg)
			}
			// Every attempt so far failed, this one included.
			tr.failed[i] = append(tr.failed[i], f.Msg)
			if len(tr.failed[i]) >= cfg.Reliability.MaxAttempts {
				continue // budget spent: the message stays undelivered
			}
			id, err := retry(i)
			if err != nil {
				return err
			}
			tr.ids[i] = id
			tr.origin[id] = i
			tr.reinjected++
			reinjected = true
		}
		if !reinjected {
			return nil
		}
		if err := nw.Settle(settleTimeout); err != nil {
			return err
		}
	}
}

// leakedPartials appends to out, in the phase's dense space, the partial
// traces a delivered message's retries leaked: first each failed
// rerouting attempt's trace, then the delivered trace dmt truncated at
// every observer the kernel logged retransmitting it.
func leakedPartials(p *phase, traces map[trace.MessageID]*trace.MessageTrace,
	failed []trace.MessageID, retries []trace.Tuple, dmt *trace.MessageTrace,
	out []*trace.MessageTrace) ([]*trace.MessageTrace, error) {
	for _, fid := range failed {
		pmt := traces[fid]
		if pmt == nil {
			// The attempt was lost on the first link: no compromised node
			// processed it, and the adversary holds an empty trace.
			pmt = &trace.MessageTrace{Msg: fid}
		}
		pmt, err := p.denseTrace(pmt)
		if err != nil {
			return nil, err
		}
		out = append(out, pmt)
	}
	for _, rt := range retries {
		if do, ok := p.live.rankOf(rt.Observer); ok {
			out = append(out, truncateAtObserver(dmt, trace.NodeID(do)))
		}
	}
	return out, nil
}

// faultAnalysis carries the kernel-side fault evidence a faulted run's
// analysis needs: which messages delivered, which retransmissions leaked
// to compromised observers, the per-phase uncompromised-receiver analysts
// the degraded folds run through, and the extra attempts the delivery
// policy spent.
type faultAnalysis struct {
	delivered map[trace.MessageID]bool
	retries   map[trace.MessageID][]trace.Tuple
	analystsU []*adversary.Analyst
	// retryN counts the kernel's link-level retransmissions
	// (PolicyRetransmit); reinjected the end-to-end re-injections
	// (PolicyReroute). Both are 0 under PolicyNone.
	retryN     uint64
	reinjected int
}

// meanAttempts is the per-message attempt statistic of a faulted run: the
// mean number of end-to-end path attempts under reroute, 1 plus the mean
// retransmission count otherwise (exactly 1 under PolicyNone).
func (fa *faultAnalysis) meanAttempts(injected int) float64 {
	switch {
	case injected == 0:
		return 1
	case fa.reinjected > 0:
		return float64(injected+fa.reinjected) / float64(injected)
	}
	return 1 + float64(fa.retryN)/float64(injected)
}

// newFaultAnalysis snapshots a settled network's fault evidence and builds
// the per-phase uncompromised-receiver analysts.
func newFaultAnalysis(cfg Config, nw *simnet.Network, reinjected int) (*faultAnalysis, error) {
	fa := &faultAnalysis{
		delivered:  make(map[trace.MessageID]bool),
		retries:    sortedRetryObservations(nw),
		analystsU:  make([]*adversary.Analyst, len(cfg.phases)),
		retryN:     nw.Metrics().Retries,
		reinjected: reinjected,
	}
	for _, d := range nw.Deliveries() {
		fa.delivered[d.Msg] = true
	}
	for i := range cfg.phases {
		p := &cfg.phases[i]
		uOpts := append(engineOptions(cfg), events.WithUncompromisedReceiver())
		e, err := Engine(p.n(), p.c(), uOpts...)
		if err != nil {
			return nil, err
		}
		if fa.analystsU[i], err = adversary.NewAnalyst(e, cfg.Strategy.Length, p.denseComp()); err != nil {
			return nil, err
		}
	}
	return fa, nil
}
