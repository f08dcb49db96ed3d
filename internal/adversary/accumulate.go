package adversary

// The accumulation attack of Wright, Adler, Levine and Shields (NDSS
// 2002), cited as [23] by Guan et al.: when one initiator talks to one
// receiver over many rounds, each round's rerouting path leaks a little,
// and the adversary multiplies the per-round posteriors. The Accumulator
// below is the engine-exact version of that attack; the scenario layer
// drives it from every backend (the exact engine replays synthesized
// traces, the Monte-Carlo estimator folds sampled sessions, the testbed
// feeds it collected tuple streams).

import (
	"errors"
	"fmt"
	"math"

	"anonmix/internal/entropy"
	"anonmix/internal/trace"
)

// ErrNoObservations reports a query on an accumulator that has seen
// nothing yet.
var ErrNoObservations = errors.New("adversary: no observations accumulated")

// Accumulator combines per-message sender posteriors across rounds.
// It is not safe for concurrent use.
type Accumulator struct {
	analyst *Analyst
	logPost []float64
	rounds  int
}

// NewAccumulator returns an accumulator over the analyst's system.
func NewAccumulator(a *Analyst) (*Accumulator, error) {
	if a == nil {
		return nil, fmt.Errorf("%w: nil analyst", ErrBadConfig)
	}
	n := a.Engine().N()
	return &Accumulator{analyst: a, logPost: make([]float64, n)}, nil
}

// Observe folds one message trace into the running posterior. Because the
// per-round prior is uniform, multiplying round posteriors (adding logs)
// yields the correct joint posterior up to normalization.
func (acc *Accumulator) Observe(mt *trace.MessageTrace) error {
	post, err := acc.analyst.Posterior(mt)
	if err != nil {
		return err
	}
	for i, p := range post.P {
		if p <= 0 {
			acc.logPost[i] = math.Inf(-1)
			continue
		}
		acc.logPost[i] += math.Log(p)
	}
	acc.rounds++
	return nil
}

// FoldPosterior folds an externally computed sender posterior into the
// running joint — the entry point for partial-information evidence that
// does not come from this accumulator's own analyst, such as the
// uncompromised-receiver analysis of a failed delivery attempt or a
// retransmission prefix (the reliability layer's retry-degraded H). The
// vector must span the analyst's N nodes and is folded exactly like an
// Observe posterior: zero mass eliminates a candidate outright.
func (acc *Accumulator) FoldPosterior(post []float64) error {
	if len(post) != len(acc.logPost) {
		return fmt.Errorf("%w: posterior over %d nodes, accumulator over %d",
			ErrBadConfig, len(post), len(acc.logPost))
	}
	for i, p := range post {
		if p <= 0 {
			acc.logPost[i] = math.Inf(-1)
			continue
		}
		acc.logPost[i] += math.Log(p)
	}
	acc.rounds++
	return nil
}

// Rounds returns the number of observations folded in.
func (acc *Accumulator) Rounds() int { return acc.rounds }

// Posterior returns the normalized joint posterior over the N nodes.
func (acc *Accumulator) Posterior() ([]float64, error) {
	if acc.rounds == 0 {
		return nil, ErrNoObservations
	}
	out := make([]float64, len(acc.logPost))
	if err := acc.posteriorInto(out); err != nil {
		return nil, err
	}
	return out, nil
}

// posteriorInto normalizes the joint posterior into the caller's buffer.
func (acc *Accumulator) posteriorInto(out []float64) error {
	return normalizeLog(acc.logPost, out)
}

// normalizeLog exponentiates and normalizes a log-posterior into out
// (max-subtracted for stability). Shared by the static and the phased
// accumulator.
func normalizeLog(logPost, out []float64) error {
	maxLog := math.Inf(-1)
	for _, lp := range logPost {
		if lp > maxLog {
			maxLog = lp
		}
	}
	if math.IsInf(maxLog, -1) {
		return fmt.Errorf("%w: joint posterior vanished (inconsistent observations)", ErrCorruptTrace)
	}
	var sum float64
	for i, lp := range logPost {
		out[i] = math.Exp(lp - maxLog)
		sum += out[i]
	}
	for i := range out {
		out[i] /= sum
	}
	return nil
}

// Entropy returns the Shannon entropy (bits) of the joint posterior —
// the sender's remaining anonymity after Rounds messages.
func (acc *Accumulator) Entropy() (float64, error) {
	p, err := acc.Posterior()
	if err != nil {
		return 0, err
	}
	return entropy.Bits(p), nil
}

// Top returns the argmax node of the joint posterior and its probability.
func (acc *Accumulator) Top() (trace.NodeID, float64, error) {
	p, err := acc.Posterior()
	if err != nil {
		return 0, 0, err
	}
	best, arg := -1.0, 0
	for i, v := range p {
		if v > best {
			best, arg = v, i
		}
	}
	return trace.NodeID(arg), best, nil
}

// Snapshot returns the joint posterior's entropy, argmax node, and argmax
// mass in one pass — the per-round query of a degradation session, which
// would otherwise normalize the posterior twice (Entropy + Top).
func (acc *Accumulator) Snapshot() (h float64, top trace.NodeID, mass float64, err error) {
	p, err := acc.Posterior()
	if err != nil {
		return 0, 0, 0, err
	}
	best, arg := -1.0, 0
	for i, v := range p {
		if v > best {
			best, arg = v, i
		}
	}
	return entropy.Bits(p), trace.NodeID(arg), best, nil
}
