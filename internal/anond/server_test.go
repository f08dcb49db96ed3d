package anond

// End-to-end tests over httptest: every /v1 endpoint's success and
// failure statuses, request coalescing against the engine cache, client
// disconnection, and graceful drain. The tests share the process-wide
// engine cache, so none of them run in parallel.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"anonmix/internal/scenario"
)

func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(opts)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return srv, ts
}

// post sends a JSON body and decodes the JSON answer into out.
func post(t *testing.T, url, body string, out any) int {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode response: %v", err)
		}
	}
	return resp.StatusCode
}

func TestScenarioEndpointGolden(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	cases := []struct {
		name string
		body string
		cfg  scenario.Config
	}{
		{
			name: "exact",
			body: `{"n":60,"compromised":4,"strategy":"uniform:1,5"}`,
			cfg: scenario.Config{N: 60, StrategySpec: "uniform:1,5",
				Adversary: scenario.Adversary{Count: 4}},
		},
		{
			name: "montecarlo",
			body: `{"n":60,"compromised":4,"backend":"mc","strategy":"uniform:1,5","messages":5000,"seed":9}`,
			cfg: scenario.Config{N: 60, Backend: scenario.BackendMonteCarlo,
				StrategySpec: "uniform:1,5", Adversary: scenario.Adversary{Count: 4},
				Workload: scenario.Workload{Messages: 5000, Seed: 9}},
		},
		{
			name: "testbed",
			body: `{"n":60,"compromised":4,"backend":"testbed","strategy":"uniform:1,5","messages":2000,"seed":9}`,
			cfg: scenario.Config{N: 60, Backend: scenario.BackendTestbed,
				StrategySpec: "uniform:1,5", Adversary: scenario.Adversary{Count: 4},
				Workload: scenario.Workload{Messages: 2000, Seed: 9}},
		},
		{
			name: "timeline",
			body: `{"n":40,"compromised":3,"strategy":"uniform:1,5","timeline":"msgs=1000;msgs=1000,comp=2"}`,
			cfg: scenario.Config{N: 40, StrategySpec: "uniform:1,5",
				Adversary: scenario.Adversary{Count: 3},
				Timeline:  []scenario.Epoch{{Messages: 1000}, {Messages: 1000, Compromise: 2}}},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want, err := scenario.Run(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			var got ScenarioResponse
			if status := post(t, ts.URL+"/v1/scenario", tc.body, &got); status != http.StatusOK {
				t.Fatalf("status %d, want 200", status)
			}
			// The daemon is a transport: its answer must be bit-identical
			// to a direct library call with the same configuration.
			if got.H != want.H || got.StdErr != want.StdErr || got.Trials != want.Trials {
				t.Errorf("response (H=%v StdErr=%v Trials=%d) != direct run (H=%v StdErr=%v Trials=%d)",
					got.H, got.StdErr, got.Trials, want.H, want.StdErr, want.Trials)
			}
			if got.Backend != string(want.Backend) {
				t.Errorf("backend %q, want %q", got.Backend, want.Backend)
			}
			if len(got.Epochs) != len(want.Epochs) {
				t.Errorf("epochs %d, want %d", len(got.Epochs), len(want.Epochs))
			}
		})
	}
}

func TestScenarioEndpointErrors(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	cases := []struct {
		name   string
		body   string
		status int
		class  string
	}{
		{"malformed json", `{"n":`, 400, "bad_config"},
		{"unknown field", `{"n":30,"compromised":2,"nodes":9}`, 400, "bad_config"},
		{"adversary larger than system", `{"n":5,"compromised":9}`, 400, "bad_config"},
		{"bad strategy spec", `{"n":30,"compromised":2,"strategy":"nope:1"}`, 400, "bad_config"},
		{"bad backend name", `{"n":30,"compromised":2,"backend":"quantum"}`, 400, "bad_config"},
		{"bad timeline", `{"n":30,"compromised":2,"strategy":"fixed:3","timeline":"bogus"}`, 400, "bad_config"},
		{"capability refusal", `{"n":30,"compromised":2,"backend":"exact","strategy":"crowds:0.7"}`, 422, "capability"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var body ErrorBody
			if status := post(t, ts.URL+"/v1/scenario", tc.body, &body); status != tc.status {
				t.Fatalf("status %d, want %d", status, tc.status)
			}
			if body.Class != tc.class {
				t.Errorf("class %q, want %q (error: %s)", body.Class, tc.class, body.Error)
			}
			if body.Error == "" {
				t.Error("empty error text")
			}
		})
	}
}

func TestDegradationEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	var got ScenarioResponse
	body := `{"n":30,"compromised":3,"strategy":"uniform:1,6","rounds":5,"messages":400,"seed":1}`
	if status := post(t, ts.URL+"/v1/degradation", body, &got); status != http.StatusOK {
		t.Fatalf("status %d, want 200", status)
	}
	if len(got.HRounds) != 5 {
		t.Errorf("h_rounds has %d entries, want 5", len(got.HRounds))
	}
	if got.Rounds != 5 {
		t.Errorf("rounds %d, want 5", got.Rounds)
	}

	// A single-shot workload has no degradation curve to serve.
	var errBody ErrorBody
	single := `{"n":30,"compromised":3,"strategy":"uniform:1,6","messages":400}`
	if status := post(t, ts.URL+"/v1/degradation", single, &errBody); status != http.StatusBadRequest {
		t.Fatalf("single-shot status %d, want 400", status)
	}
	if errBody.Class != "bad_config" {
		t.Errorf("class %q, want bad_config", errBody.Class)
	}

	// A rounds timeline qualifies without a top-level rounds field.
	var tl ScenarioResponse
	tlBody := `{"n":30,"compromised":3,"strategy":"uniform:1,6","messages":200,"seed":1,"timeline":"rounds=2;rounds=2,comp=3"}`
	if status := post(t, ts.URL+"/v1/degradation", tlBody, &tl); status != http.StatusOK {
		t.Fatalf("timeline status %d, want 200", status)
	}
	if len(tl.HRounds) != 4 || len(tl.Epochs) != 2 {
		t.Errorf("timeline response has %d rounds / %d epochs, want 4 / 2", len(tl.HRounds), len(tl.Epochs))
	}
}

func TestOptimizeEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	var got OptimizeResponse
	if status := post(t, ts.URL+"/v1/optimize", `{"n":30,"c":2,"mean":5}`, &got); status != http.StatusOK {
		t.Fatalf("status %d, want 200", status)
	}
	if len(got.Dist) == 0 {
		t.Fatal("empty optimized distribution")
	}
	if got.MeanLength < 4.99 || got.MeanLength > 5.01 {
		t.Errorf("mean_length %v, want ≈5", got.MeanLength)
	}
	if got.H <= 0 || got.Normalized <= 0 || got.Normalized > 1 {
		t.Errorf("implausible solution: H=%v normalized=%v", got.H, got.Normalized)
	}

	// Infeasible and malformed problems are configuration errors.
	for name, body := range map[string]string{
		"infeasible mean": `{"n":30,"c":2,"mean":200}`,
		"bad support":     `{"n":30,"c":2,"hi":99}`,
	} {
		var errBody ErrorBody
		if status := post(t, ts.URL+"/v1/optimize", body, &errBody); status != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, status)
		}
	}

	// The epoch-aware path: per-epoch curve plus the blended scores.
	var tl OptimizeResponse
	tlBody := `{"n":24,"c":2,"epochs":"msgs=1000;msgs=1000,comp=2;msgs=1000,comp=2","hi":8}`
	if status := post(t, ts.URL+"/v1/optimize", tlBody, &tl); status != http.StatusOK {
		t.Fatalf("timeline status %d, want 200", status)
	}
	if len(tl.PerEpoch) != 3 {
		t.Fatalf("per_epoch has %d entries, want 3", len(tl.PerEpoch))
	}
	if tl.PerEpochH < tl.H-1e-9 {
		t.Errorf("per-epoch blend %v below joint %v — re-optimizing every epoch cannot lose", tl.PerEpochH, tl.H)
	}
	if tl.StaticH > tl.PerEpochH+1e-9 {
		t.Errorf("static blend %v above per-epoch %v", tl.StaticH, tl.PerEpochH)
	}
}

func TestRateLimit(t *testing.T) {
	clock := newFakeClock()
	_, ts := newTestServer(t, Options{RatePerSecond: 1, Burst: 2, Now: clock.Now})
	body := `{"n":20,"compromised":1,"strategy":"fixed:3"}`
	for i := range 2 {
		if status := post(t, ts.URL+"/v1/scenario", body, nil); status != http.StatusOK {
			t.Fatalf("burst request %d: status %d, want 200", i, status)
		}
	}
	var errBody ErrorBody
	resp, err := http.Post(ts.URL+"/v1/scenario", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without a Retry-After header")
	}
	if err := json.NewDecoder(resp.Body).Decode(&errBody); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if errBody.Class != "rate_limited" {
		t.Errorf("class %q, want rate_limited", errBody.Class)
	}
	// Health and metrics stay reachable for a throttled client.
	if resp, err := http.Get(ts.URL + "/v1/health"); err != nil || resp.StatusCode != http.StatusOK {
		t.Errorf("health during throttling: %v %v", resp.StatusCode, err)
	} else {
		resp.Body.Close()
	}
	clock.Advance(time.Second)
	if status := post(t, ts.URL+"/v1/scenario", body, nil); status != http.StatusOK {
		t.Errorf("post-refill status %d, want 200", status)
	}
}

// slowBody is a degradation run long enough (~0.5 s) that concurrently
// fired requests reliably overlap in flight.
const slowBody = `{"n":97,"compromised":6,"strategy":"uniform:1,9","rounds":40,"messages":8000,"seed":11}`

// TestCoalescing fires identical concurrent requests and checks the
// ISSUE's acceptance signal: the whole burst costs exactly one engine
// build, every answer is identical, and the daemon accounts the joins.
func TestCoalescing(t *testing.T) {
	srv, ts := newTestServer(t, Options{})
	scenario.ResetEngines()
	scenario.ResetCacheStats()
	t.Cleanup(func() { scenario.ResetCacheStats() })

	const clients = 6
	var (
		wg        sync.WaitGroup
		mu        sync.Mutex
		responses []ScenarioResponse
	)
	for range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var got ScenarioResponse
			if status := post(t, ts.URL+"/v1/scenario", slowBody, &got); status != http.StatusOK {
				t.Errorf("status %d, want 200", status)
				return
			}
			mu.Lock()
			responses = append(responses, got)
			mu.Unlock()
		}()
	}
	wg.Wait()
	if len(responses) != clients {
		t.Fatalf("%d responses, want %d", len(responses), clients)
	}
	for _, r := range responses[1:] {
		if r.H != responses[0].H || len(r.HRounds) != len(responses[0].HRounds) {
			t.Errorf("coalesced responses disagree: %v vs %v", r.H, responses[0].H)
		}
	}
	if st := scenario.CacheStats(); st.Misses != 1 {
		t.Errorf("%d engine-cache misses for %d identical concurrent requests, want exactly 1", st.Misses, clients)
	}
	coalesced := 0
	for _, r := range responses {
		if r.Coalesced {
			coalesced++
		}
	}
	if coalesced == 0 {
		t.Error("no response joined the shared flight")
	}
	if m := srv.Metrics(); m.Coalesced != int64(coalesced) {
		t.Errorf("metrics count %d coalesced responses, responses carry %d", m.Coalesced, coalesced)
	}
}

// TestClientDisconnectCancels pins the 499 path: a client abandoning its
// request surfaces as a canceled run in the daemon's accounting, not as
// an error answer.
func TestClientDisconnectCancels(t *testing.T) {
	srv, ts := newTestServer(t, Options{})
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		ts.URL+"/v1/scenario", strings.NewReader(slowBody))
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		_, err := http.DefaultClient.Do(req)
		errc <- err
	}()
	// Wait for the request to be in flight, then walk away.
	waitFor(t, "request in flight", func() bool { return srv.Metrics().InFlight == 1 })
	cancel()
	if err := <-errc; err == nil {
		t.Error("canceled client saw a response")
	}
	waitFor(t, "cancellation accounted", func() bool {
		m := srv.Metrics()
		return m.Canceled == 1 && m.InFlight == 0
	})
}

// TestDrain pins graceful shutdown: Drain waits for the in-flight run,
// which still completes successfully, while new work and health answer
// 503.
func TestDrain(t *testing.T) {
	srv, ts := newTestServer(t, Options{})
	type outcome struct {
		status int
		h      float64
	}
	done := make(chan outcome, 1)
	go func() {
		var got ScenarioResponse
		status := post(t, ts.URL+"/v1/degradation", slowBody, &got)
		done <- outcome{status, got.H}
	}()
	waitFor(t, "request in flight", func() bool { return srv.Metrics().InFlight == 1 })

	drained := make(chan error, 1)
	go func() { drained <- srv.Drain(context.Background()) }()
	waitFor(t, "draining visible", srv.Draining)

	// New compute work is refused while the old run finishes.
	var errBody ErrorBody
	if status := post(t, ts.URL+"/v1/scenario", `{"n":20,"compromised":1,"strategy":"fixed:3"}`, &errBody); status != http.StatusServiceUnavailable {
		t.Errorf("compute during drain: status %d, want 503", status)
	}
	if errBody.Class != "draining" {
		t.Errorf("class %q, want draining", errBody.Class)
	}
	resp, err := http.Get(ts.URL + "/v1/health")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("health during drain: status %d, want 503", resp.StatusCode)
	}

	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	out := <-done
	if out.status != http.StatusOK || out.h == 0 {
		t.Errorf("in-flight request during drain got status %d (h=%v), want a complete 200", out.status, out.h)
	}
	if m := srv.Metrics(); m.InFlight != 0 {
		t.Errorf("in_flight %d after drain, want 0", m.InFlight)
	}
}

func TestStreamScenario(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	cfg := scenario.Config{N: 60, Backend: scenario.BackendMonteCarlo,
		StrategySpec: "uniform:1,5", Adversary: scenario.Adversary{Count: 4},
		Workload: scenario.Workload{Messages: 20000, Seed: 9}}
	want, err := scenario.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	body := `{"n":60,"compromised":4,"backend":"mc","strategy":"uniform:1,5","messages":20000,"seed":9}`
	resp, err := http.Post(ts.URL+"/v1/scenario?stream=1", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("content type %q, want application/x-ndjson", ct)
	}
	var (
		progressLines int
		result        *ScenarioResponse
		sc            = bufio.NewScanner(resp.Body)
	)
	for sc.Scan() {
		var line streamLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		switch {
		case line.Progress != nil:
			if result != nil {
				t.Error("progress line after the terminal result")
			}
			if line.Progress.Total != 20000 || line.Progress.Done <= 0 || line.Progress.Done > 20000 {
				t.Errorf("implausible progress %d/%d", line.Progress.Done, line.Progress.Total)
			}
			progressLines++
		case line.Result != nil:
			result = line.Result
		case line.Error != nil:
			t.Fatalf("stream ended in error: %s", line.Error.Error)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if progressLines == 0 {
		t.Error("stream carried no progress lines")
	}
	if result == nil {
		t.Fatal("stream carried no terminal result")
	}
	if result.H != want.H {
		t.Errorf("streamed H %v != direct run %v", result.H, want.H)
	}
}

// TestStreamTimelineEpochs checks that exact-timeline streams attach the
// completed epochs' partial results to their progress lines.
func TestStreamTimelineEpochs(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	body := `{"n":40,"compromised":3,"strategy":"uniform:1,5","timeline":"msgs=1000;msgs=1000,comp=2"}`
	resp, err := http.Post(ts.URL+"/v1/scenario?stream=1", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var epochs int
	for _, text := range bytes.Split(bytes.TrimSpace(raw), []byte("\n")) {
		var line streamLine
		if err := json.Unmarshal(text, &line); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", text, err)
		}
		if line.Progress != nil && line.Progress.Epoch != nil {
			epochs++
		}
	}
	if epochs != 2 {
		t.Errorf("%d epoch-carrying progress lines, want 2", epochs)
	}
}

func TestMethodNotAllowed(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	resp, err := http.Get(ts.URL + "/v1/scenario")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/scenario: status %d, want 405", resp.StatusCode)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	post(t, ts.URL+"/v1/scenario", `{"n":20,"compromised":1,"strategy":"fixed:3"}`, nil)
	post(t, ts.URL+"/v1/scenario", `{"n":5,"compromised":9}`, nil)
	var m MetricsResponse
	resp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m.Requests["scenario"] != 2 {
		t.Errorf("scenario requests %d, want 2", m.Requests["scenario"])
	}
	if m.Statuses["200"] != 1 || m.Statuses["400"] != 1 {
		t.Errorf("statuses %v, want one 200 and one 400", m.Statuses)
	}
	if m.InFlight != 0 {
		t.Errorf("in_flight %d, want 0", m.InFlight)
	}
}

// waitFor polls cond every millisecond for up to 10 s — the test-side
// synchronization for states the daemon reaches asynchronously.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestOptimizeHugeTimeline pins one hostile input: a ~140-byte timeline
// request at n = 16e6. Deriving the epochs' (N, C) is interval arithmetic,
// so the request is answered without allocating anything proportional to
// n (the per-node membership schedule used to allocate 7.5 GiB here).
func TestOptimizeHugeTimeline(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	body := `{"n":16000000,"c":40,"hi":8,"mean":4,` +
		`"epochs":"msgs=1000;msgs=1000,join=2000,comp=20;msgs=1000,leave=1000,recover=10;msgs=1000,join=500"}`
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	var got OptimizeResponse
	status := post(t, ts.URL+"/v1/optimize", body, &got)
	runtime.ReadMemStats(&after)
	if status != http.StatusOK {
		t.Fatalf("status %d, want 200", status)
	}
	if len(got.PerEpoch) != 4 || got.PerEpoch[2].N != 16_001_000 || got.PerEpoch[2].C != 50 {
		t.Errorf("per-epoch curve %+v", got.PerEpoch)
	}
	// The engines and the solver take ≈10 MiB; anything per-node would take
	// hundreds of MiB at this n.
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 64<<20 {
		t.Errorf("request allocated %d MiB (budget 64 MiB)", alloc>>20)
	}
}
