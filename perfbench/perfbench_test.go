package main

// Self-tests of the benchmark itself: seeded op streams, open-loop timing
// from the due time, the closed-loop phase, the tail-percentile rule, the
// per-cycle CPU figure, and the metric report.
// Run from this directory with `go test .` (add -short to skip the
// workload runs).

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// streams renders the first ops of every workload's generator for a seed.
func streams(t *testing.T, seed int64) map[string]any {
	t.Helper()
	out := map[string]any{}
	var design []designOp
	var churn [][]any
	var sess []sessionOp
	fam := sessionFamilyOf(seed)
	for i := 0; i < 30; i++ {
		design = append(design, designOpAt(seed, i))
		sess = append(sess, sessionOpAt(seed, fam, i))
		churn = append(churn, []any{churnTimelineAt(seed, i)})
	}
	sfam := serveFamilyOf(seed)
	var serve []string
	for j := 0; j < 60; j++ {
		r, err := serveRequestAt(seed, sfam, j)
		if err != nil {
			t.Fatal(err)
		}
		serve = append(serve, string(r.body))
	}
	out[wDesign] = design
	out[wSessions] = sess
	out[wChurn] = churn
	out[wServe] = serve
	out["schedule"] = poissonSchedule(seed, 1000, time.Second)
	return out
}

func TestOpStreamsFollowTheSeed(t *testing.T) {
	a, b, c := streams(t, 7), streams(t, 7), streams(t, 8)
	for name := range a {
		if !reflect.DeepEqual(a[name], b[name]) {
			t.Errorf("%s: the same seed gave different op streams", name)
		}
		if reflect.DeepEqual(a[name], c[name]) {
			t.Errorf("%s: different seeds gave the same op stream", name)
		}
	}
}

// TestOpenLoopTimesFromDue: a handler that stalls once, holding every
// other request back, must raise the latency of the requests released
// during the stall by the time they waited, although their own service
// time is short once the stall ends.
func TestOpenLoopTimesFromDue(t *testing.T) {
	const stall = 120 * time.Millisecond
	var mu sync.Mutex
	first := true
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		if first {
			first = false
			time.Sleep(stall)
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer ts.Close()
	client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: serveConns, MaxIdleConnsPerHost: serveConns}}
	defer client.CloseIdleConnections()
	due := make([]time.Duration, 40)
	for k := range due {
		due[k] = time.Duration(k) * 5 * time.Millisecond
	}
	samples, _ := openLoop(func(k int) (int, []byte, error) {
		return postJSON(client, ts.URL, []byte("{}"), nil)
	}, due, serveConns)
	for k := 1; k < len(due); k++ {
		s := samples[k]
		if s.err != nil || s.status != http.StatusOK {
			t.Fatalf("request %d: %v %d", k, s.err, s.status)
		}
		// Released at due[k]+late; the stall ends at about stall.
		waited := stall - due[k] - s.late
		if waited > 20*time.Millisecond && s.latency < waited-10*time.Millisecond {
			t.Errorf("request %d due at %v: latency %v, but it waited about %v behind the stall", k, due[k], s.latency, waited)
		}
	}
	if last := samples[len(due)-1]; last.latency > stall/2 {
		t.Errorf("a request due after the stall drained took %v", last.latency)
	}
}

// The closed-loop phase sends every request index exactly once, in order
// of claim, and records each outcome under its index.
func TestSaturateSendsEachIndexOnce(t *testing.T) {
	var mu sync.Mutex
	sent := map[int]int{}
	samples := saturate(func(k int) (int, []byte, error) {
		mu.Lock()
		sent[k]++
		mu.Unlock()
		time.Sleep(time.Millisecond)
		return http.StatusOK, []byte(strconv.Itoa(k)), nil
	}, 2, 50*time.Millisecond)
	if len(samples) < 2 || len(sent) != len(samples) {
		t.Fatalf("%d samples for %d distinct requests", len(samples), len(sent))
	}
	for k, s := range samples {
		if sent[k] != 1 || string(s.body) != strconv.Itoa(k) || s.latency < time.Millisecond {
			t.Errorf("request %d: sent %d times, sample %+v", k, sent[k], s)
		}
	}
}

func TestTailRule(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // descending: the rule must sort
		}
		return xs
	}
	for _, tc := range []struct {
		n       int
		ok      bool
		value   float64
		percent float64
	}{
		{n: 5},
		{n: 10},
		{n: 11, ok: true, value: 1, percent: 100.0 / 11},
		{n: 100, ok: true, value: 90, percent: 90},
		{n: 1000, ok: true, value: 990, percent: 99},
		{n: 20000, ok: true, value: 19990, percent: 99.95},
	} {
		got, ok := tailOf(seq(tc.n))
		if ok != tc.ok {
			t.Errorf("n=%d: ok = %v", tc.n, ok)
			continue
		}
		if ok && (math.Abs(got.value-tc.value) > 1e-9 || math.Abs(got.percentile-tc.percent) > 1e-9) {
			t.Errorf("n=%d: tail = %v at p%v, want %v at p%v", tc.n, got.value, got.percentile, tc.value, tc.percent)
		}
	}
	// Below 100 samples no percentile at or above p90 leaves 10 beyond, so
	// the reported tail is the slowest op.
	for _, n := range []int{1, 50, 99} {
		rep := newReport()
		latencyMetrics(rep, seq(n))
		if rep.endToEnd["tail_ms"] != float64(n) || !strings.HasPrefix(rep.notes["tail_ms"], "max of") {
			t.Errorf("n=%d: tail_ms = %v (%s), want the max", n, rep.endToEnd["tail_ms"], rep.notes["tail_ms"])
		}
	}
	rep := newReport()
	latencyMetrics(rep, seq(100))
	if rep.endToEnd["tail_ms"] != 90 {
		t.Errorf("n=100: tail_ms = %v, want p90 = 90", rep.endToEnd["tail_ms"])
	}
}

// benchmarkJSON is the part of BENCHMARK.json the report must match.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func TestCyclesCPU(t *testing.T) {
	for _, tc := range []struct {
		name   string
		opCPU  []float64
		cycle  int
		perOp  float64
		cycles int
	}{
		{name: "no whole cycle", opCPU: []float64{1, 2}, cycle: 3},
		// The trailing partial cycle (op 9) is left out.
		{name: "median of cycles", opCPU: []float64{1, 2, 3, 10, 20, 30, 2, 3, 4, 100}, cycle: 3, perOp: 3, cycles: 3},
		// A cycle with a failed or traced op (-1) is skipped.
		{name: "skips incomplete", opCPU: []float64{1, -1, 3, 4, 5, 6}, cycle: 3, perOp: 5, cycles: 1},
	} {
		perOp, cycles := cyclesCPU(tc.opCPU, tc.cycle)
		if cycles != tc.cycles || math.Abs(perOp-tc.perOp) > 1e-12 {
			t.Errorf("%s: got %v over %d cycles, want %v over %d", tc.name, perOp, cycles, tc.perOp, tc.cycles)
		}
	}
}

func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside this directory")
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloads) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark %v", names, workloads)
	}
	var e2eNames []string
	for _, m := range bj.EndToEnd {
		e2eNames = append(e2eNames, m.Name)
		if def, ok := lookupMetric(m.Name); !ok || !def.endToEnd || def.unit != m.Unit {
			t.Errorf("end-to-end %s (%s) does not match the catalogue", m.Name, m.Unit)
		}
	}
	if !reflect.DeepEqual(e2eNames, jsonEndToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, result line %v", e2eNames, jsonEndToEnd)
	}
	layers := map[string]bool{}
	for _, m := range bj.PerLayer {
		layers[m.Name] = true
		if def, ok := lookupMetric(m.Name); !ok || def.endToEnd || def.unit != m.Unit {
			t.Errorf("per-layer %s (%s) does not match the catalogue", m.Name, m.Unit)
		}
	}
	for _, m := range catalogue {
		if !m.endToEnd && !layers[m.name] {
			t.Errorf("catalogue layer metric %s is missing from BENCHMARK.json", m.name)
		}
	}
}

// TestWorkloadsReportEveryMetric runs every workload briefly, untraced and
// traced, and checks that every catalogue metric is printed with its unit
// or marked n/a, that every metric applying to the workload was measured,
// that the result line carries exactly the run kind's metrics, and that
// the outputs verified.
func TestWorkloadsReportEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	seconds := map[string]string{wServe: "1", wDesign: "2", wSessions: "2", wChurn: "5"}
	for _, w := range workloads {
		for _, traced := range []string{"0", "1"} {
			t.Run(w+"/trace"+traced, func(t *testing.T) {
				var out, errOut bytes.Buffer
				args := []string{"--workload", w, "--seed", "3", "--seconds", seconds[w], "--trace", traced, "--out", t.TempDir()}
				if code := run(args, &out, &errOut); code != 0 {
					t.Fatalf("exit %d: %s", code, errOut.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res struct {
					Correct   bool `json:"correct"`
					Attempted int  `json:"attempted"`
					Failed    int  `json:"failed"`
					Metrics   map[string]struct {
						Value float64 `json:"value"`
						Unit  string  `json:"unit"`
					} `json:"metrics"`
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("run not correct: %s", out.String())
				}
				var want, got []string
				for _, m := range catalogue {
					if m.endToEnd == (traced == "1") {
						continue
					}
					if !m.endToEnd || contains(jsonEndToEnd, m.name) {
						want = append(want, m.name)
					}
					line := findLine(lines, "  "+m.name+" ")
					if line == "" {
						t.Errorf("%s is not printed", m.name)
						continue
					}
					fields := strings.Fields(line)
					if len(fields) < 3 || fields[2] != m.unit {
						t.Errorf("%s printed without its unit %s: %q", m.name, m.unit, line)
					}
					if m.applies(w) == (fields[1] == "n/a") {
						t.Errorf("%s: applies=%v but printed %q", m.name, m.applies(w), line)
					}
				}
				for name, v := range res.Metrics {
					got = append(got, name)
					if def, _ := lookupMetric(name); v.Unit != def.unit {
						t.Errorf("%s: unit %q, want %q", name, v.Unit, def.unit)
					}
				}
				sort.Strings(want)
				sort.Strings(got)
				if !reflect.DeepEqual(want, got) {
					t.Errorf("result line metrics %v, want %v", got, want)
				}
			})
		}
	}
}

func contains(xs []string, x string) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}

func findLine(lines []string, prefix string) string {
	for _, l := range lines {
		if strings.HasPrefix(l, prefix) {
			return l
		}
	}
	return ""
}
