package main

import (
	"fmt"
	"math"
	"sort"
)

// The metric catalogue: every metric the benchmark knows, with its unit
// and the workloads that measure it. A metric a workload does not measure
// is printed as "n/a" in the human table and as 0 in the JSON result line,
// whose key set must be the same for every workload.

const (
	wServe    = "serve"
	wDesign   = "design"
	wSessions = "sessions"
	wChurn    = "churn"
)

var workloads = []string{wServe, wDesign, wSessions, wChurn}

type metricDef struct {
	name, unit string
	// endToEnd metrics are reported by untraced runs, layer metrics by
	// traced runs.
	endToEnd bool
	// on lists the workloads that measure the metric; nil means all.
	on []string
}

func (m metricDef) applies(workload string) bool {
	if m.on == nil {
		return true
	}
	for _, w := range m.on {
		if w == workload {
			return true
		}
	}
	return false
}

func e2e(name, unit string, on ...string) metricDef {
	return metricDef{name: name, unit: unit, endToEnd: true, on: on}
}

func layer(name, unit string, on ...string) metricDef {
	return metricDef{name: name, unit: unit, on: on}
}

var catalogue = []metricDef{
	e2e("setup_s", "s"),
	e2e("p50_ms", "ms"),
	e2e("tail_ms", "ms"),
	e2e("ops_per_s", "1/s"),
	e2e("sustained_rps", "req/s", wServe),
	e2e("cpu_ms_per_op", "ms"),
	e2e("peak_rss_mib", "MiB"),
	e2e("error_ratio", "ratio"),

	layer("anond.serve_us", "us", wServe),
	layer("anond.net_us", "us", wServe),
	layer("anond.decode_us", "us", wServe),
	layer("anond.encode_us", "us", wServe),
	layer("anond.coalesced_ratio", "ratio", wServe),
	layer("anond.non200_ratio", "ratio", wServe),
	layer("pathsel.lookup_us", "us", wServe, wSessions),
	layer("scenario.run_exact_us", "us", wServe),
	layer("scenario.engine_hit_us", "us", wServe, wDesign, wSessions),
	layer("scenario.engine_hit_ratio", "ratio"),
	layer("scenario.engine_miss_us", "us", wDesign),
	layer("scenario.engine_delta_us", "us", wDesign),
	layer("scenario.engine_hits", "1/op"),
	layer("scenario.engine_misses", "1/op"),
	layer("scenario.engine_delta_derived", "1/op"),
	layer("scenario.engine_evictions", "1/op"),
	layer("events.new_us", "us", wDesign),
	layer("events.neighbor_us", "us", wDesign),
	layer("events.weights_us", "us", wDesign),
	layer("events.degree_us", "us", wDesign),
	layer("optimize.solve_ms", "ms", wDesign),
	layer("optimize.iterations", "count", wDesign),
	layer("optimize.converged_ratio", "ratio", wDesign),
	layer("montecarlo.trials_per_s", "1/s", wSessions),
	layer("montecarlo.session_us", "us", wSessions),
	layer("adversary.entropy_ns", "ns", wSessions),
	layer("adversary.fold_ns", "ns", wSessions),
	layer("pathsel.select_ns", "ns", wSessions),
	layer("scenario.run_mc_ms", "ms", wServe, wSessions),
	layer("scenario.timeline_states_ms", "ms", wChurn),
	layer("scenario.timeline_states_alloc_mib", "MiB", wChurn),
	layer("scenario.timeline_states_share", "ratio", wChurn),
	layer("scenario.run_testbed_ms", "ms", wChurn),
	layer("simnet.events", "count", wChurn),
	layer("simnet.busy_ms", "ms", wChurn),
	layer("simnet.events_per_s", "1/s", wChurn),
	layer("simnet.churn", "count", wChurn),
	layer("faults.delivery_rate", "ratio", wChurn),
	layer("faults.attempts_per_msg", "count", wChurn),
	layer("runtime.alloc_mib_per_op", "MiB"),
	layer("runtime.allocs_per_op", "count"),
	layer("runtime.gc_cpu_fraction", "ratio"),
	layer("runtime.heap_peak_mib", "MiB"),
	layer("gen.late_ms", "ms", wServe),
	layer("gen.backlog", "count", wServe),
	layer("trace.overhead_ratio", "ratio"),
	layer("trace.spans", "count"),
}

// jsonEndToEnd are the end-to-end metrics of the result line, as
// BENCHMARK.json lists them: set-up time and the two costs a user pays
// per op that hypervisor steal does not move. The wall-clock metrics stay
// in the human table and the run record. On a host whose vCPUs lose up to
// half their time to steal in phases lasting minutes, p50_ms, ops_per_s
// and tail_ms move with the steal share far more than any 25% bound
// allows (README.md has the figures); sustained_rps is a step function of
// the fixed serve rates and error_ratio is 0 on a correct run, so neither
// can carry a bound relative to its median, and error_ratio is also the
// result line's failed/attempted.
var jsonEndToEnd = []string{"setup_s", "cpu_ms_per_op", "peak_rss_mib"}

func lookupMetric(name string) (metricDef, bool) {
	for _, m := range catalogue {
		if m.name == name {
			return m, true
		}
	}
	return metricDef{}, false
}

// median returns the median of xs (NaN when empty). xs is not modified.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// medianOr0 is median for layer metrics, which read 0 when a traced run
// made no call to measure.
func medianOr0(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return median(xs)
}

// quantile returns the q-quantile of xs with linear interpolation between
// order statistics (NaN when empty). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// tailBeyond is the number of samples the tail percentile must leave
// above it.
const tailBeyond = 10

// tail is the highest percentile of a sample that leaves at least
// tailBeyond samples above it: the order statistic of rank n−tailBeyond.
type tail struct {
	value      float64
	percentile float64
	n          int
}

// tailOf computes the tail of xs; ok is false when the sample is too small
// to leave tailBeyond samples above any of its values.
func tailOf(xs []float64) (t tail, ok bool) {
	n := len(xs)
	if n <= tailBeyond {
		return tail{n: n}, false
	}
	s := sorted(xs)
	k := n - tailBeyond // 1-based rank; exactly tailBeyond samples rank above it
	return tail{value: s[k-1], percentile: 100 * float64(k) / float64(n), n: n}, true
}

func (t tail) String() string {
	return fmt.Sprintf("p%.4g of %d, %d beyond", t.percentile, t.n, tailBeyond)
}
