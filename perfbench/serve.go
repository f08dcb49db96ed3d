package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"anonmix/internal/anond"
	"anonmix/internal/pathsel"
	"anonmix/internal/scenario"
	"anonmix/internal/stats"
)

// serve: open loop against an in-process anond.Server on a loopback
// listener. Arrivals follow a seeded Poisson schedule at each of the fixed
// serveRates in turn, over serveConns client connections; every request
// is timed from when it was due, so a stall also delays the requests
// queued behind it. A closed-loop phase at the end sends requests back to
// back over the same connections and measures the daemon's capacity.
// Most requests are cache-hot exact /v1/scenario requests over a seeded
// family of serveFamily configs (N, C, strategy, and for a quarter a
// short timeline) that fits the engine LRU; one in serveMCEvery is a
// small Monte-Carlo request with its own seed, so nothing coalesces by
// accident.

const (
	serveFamily  = 48
	serveMCEvery = 25
	// serveMCTrials makes a Monte-Carlo request cost about a millisecond,
	// an order of magnitude above a cache-hot exact one.
	serveMCTrials = 500
	serveConns    = 2
	// serveLimit is the latency limit: a request answered later than this
	// after it was due counts as failed, and a rate is sustained only when
	// its tail stays within it with no growing backlog.
	serveLimit = 100 * time.Millisecond
	// serveWarm is how many requests set-up sends after the family pass.
	serveWarm = 8 * serveFamily
	// serveDigestOps is how many leading requests the output digest covers.
	serveDigestOps = 1000
)

// serveRates are the fixed arrival rates in requests per second. p50_ms
// and tail_ms are reported at the lowest, where latency is the daemon's
// own rather than queueing behind other requests. Two connections
// saturate at about 12k req/s on a 2-vCPU Xeon host, but at 6000 req/s one
// run in ten there answered hundreds of requests past the limit after a
// stall; the top rate is a quarter of capacity, so that every request
// stays within the limit, and capacity is measured by the closed-loop
// phase instead.
var serveRates = []float64{400, 1500, 3000}

type serveReq struct {
	body   []byte
	req    anond.ScenarioRequest
	family int // -1 for a Monte-Carlo request
}

func serveFamilyOf(seed int64) []anond.ScenarioRequest {
	fam := make([]anond.ScenarioRequest, serveFamily)
	for f := range fam {
		rng := stats.NewRand(stats.ForkSeed(seed, int64(1<<32+f)))
		// N in [20, 2000], log-stratified by family member.
		n := int(math.Round(20 * math.Pow(100, (float64(f)+rng.Float64())/serveFamily)))
		// The strategy is a function of the member alone: cold builds of
		// the family cost the same set-up time whatever the seed.
		req := anond.ScenarioRequest{
			N:           n,
			Compromised: 1 + rng.Intn(max(1, n/10)),
			Strategy:    smallStrategy(f*7919, n),
		}
		if f%4 == 3 {
			req.Timeline = fmt.Sprintf("msgs=100;msgs=100,join=%d,comp=1", rng.Intn(5))
		}
		fam[f] = req
	}
	return fam
}

// smallStrategy picks a simple-path strategy spec valid for n nodes.
func smallStrategy(r, n int) string {
	maxLen := min(8, n-2)
	if r%3 == 0 {
		return "fixed:" + strconv.Itoa(1+r/3%maxLen)
	}
	a := 1 + r/3%(maxLen-1)
	b := a + 1 + r/7%(maxLen-a)
	return fmt.Sprintf("uniform:%d,%d", a, b)
}

func serveRequestAt(seed int64, fam []anond.ScenarioRequest, j int) (serveReq, error) {
	rng := stats.NewRand(stats.ForkSeed(seed, int64(j)))
	r := serveReq{family: rng.Intn(len(fam))}
	r.req = fam[r.family]
	if j%serveMCEvery == serveMCEvery-1 {
		n := 30 + rng.Intn(91)
		r.family = -1
		r.req = anond.ScenarioRequest{
			N:           n,
			Backend:     string(scenario.BackendMonteCarlo),
			Compromised: 1 + rng.Intn(n/10),
			Strategy:    smallStrategy(rng.Intn(1<<30), n),
			Messages:    serveMCTrials,
			Seed:        stats.ForkSeed(seed, int64(1<<40+j)),
			Workers:     1,
		}
	}
	body, err := json.Marshal(&r.req)
	r.body = body
	return r, err
}

// scenarioConfig mirrors anond's request materialization for the fields
// the benchmark sends.
func scenarioConfig(req anond.ScenarioRequest) (scenario.Config, error) {
	cfg := scenario.Config{
		N:            req.N,
		StrategySpec: req.Strategy,
		Adversary:    scenario.Adversary{Count: req.Compromised},
		Workload:     scenario.Workload{Messages: req.Messages, Seed: req.Seed, Workers: req.Workers},
	}
	if req.Backend != "" {
		kind, err := scenario.ParseBackend(req.Backend)
		if err != nil {
			return cfg, err
		}
		cfg.Backend = kind
	}
	if req.Timeline != "" {
		timeline, err := scenario.ParseTimeline(req.Timeline)
		if err != nil {
			return cfg, err
		}
		cfg.Timeline = timeline
	}
	return cfg, nil
}

// wireOf renders a result as anond's wire form with the fields that vary
// between identical runs (elapsed time, coalescing) cleared, so that two
// answers to one config compare byte for byte.
func wireOf(res scenario.Result) ([]byte, error) {
	out := anond.ScenarioResponse{
		Backend:                string(res.Backend),
		H:                      res.H,
		StdErr:                 res.StdErr,
		CI95:                   res.CI95,
		Estimated:              res.Estimated,
		Trials:                 res.Trials,
		MaxH:                   res.MaxH,
		Normalized:             res.Normalized,
		CompromisedSenderShare: res.CompromisedSenderShare,
		Deanonymized:           res.Deanonymized,
		Rounds:                 res.Rounds,
		HRounds:                res.HRounds,
		IdentifiedShare:        res.IdentifiedShare,
		MeanRoundsToIdentify:   res.MeanRoundsToIdentify,
		DeliveryRate:           res.DeliveryRate,
		MeanAttempts:           res.MeanAttempts,
		HDegraded:              res.HDegraded,
	}
	for _, ep := range res.Epochs {
		out.Epochs = append(out.Epochs, anond.EpochResponse{
			Index: ep.Index, N: ep.N, C: ep.C, Messages: ep.Messages, Rounds: ep.Rounds, H: ep.H,
		})
	}
	return json.Marshal(&out)
}

// normalizeBody decodes a response body and re-renders it as wireOf does.
func normalizeBody(body []byte) ([]byte, bool, error) {
	var resp anond.ScenarioResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, false, err
	}
	coalesced := resp.Coalesced
	resp.ElapsedMS, resp.Coalesced = 0, false
	out, err := json.Marshal(&resp)
	return out, coalesced, err
}

// sample is one request's outcome.
type sample struct {
	status int
	body   []byte
	err    error
	// latency runs from the request's release to when its response was
	// read.
	latency time.Duration
	// late is how far after its due time the generator released the
	// request.
	late time.Duration
}

// poissonSchedule draws arrival offsets at the given rate for dur.
func poissonSchedule(seed int64, rate float64, dur time.Duration) []time.Duration {
	rng := stats.NewRand(seed)
	var due []time.Duration
	for t := 0.0; ; {
		t += rng.ExpFloat64() / rate
		d := time.Duration(t * float64(time.Second))
		if d >= dur {
			return due
		}
		due = append(due, d)
	}
}

// openLoop releases request k at start+due[k] into a queue that conns
// senders drain, and returns every request's outcome and the queue length
// when the last request was released (a backlog still growing at the end
// of the schedule). A request's latency counts from its release, not from
// when a sender took it, so a stall also delays the requests queued behind
// it. The releasing goroutine sleeps on Go's timers, which wake an idle
// process on a millisecond grid; it releases every request due by the time
// it wakes, and that lateness is the generator's own error, reported as
// gen.late_ms rather than charged to the system.
func openLoop(send func(k int) (int, []byte, error), due []time.Duration, conns int) ([]sample, int) {
	type job struct {
		k       int
		release time.Time
	}
	samples := make([]sample, len(due))
	// Sized to the whole schedule: releasing never waits for a sender.
	queue := make(chan job, len(due))
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range queue {
				status, body, err := send(j.k)
				s := &samples[j.k]
				s.status, s.body, s.err = status, body, err
				s.latency = time.Since(j.release)
			}
		}()
	}
	start := time.Now()
	backlog := 0
	for k := 0; k < len(due); {
		if d := time.Until(start.Add(due[k])); d > 0 {
			time.Sleep(d)
		}
		now := time.Now()
		for ; k < len(due) && due[k] <= now.Sub(start); k++ {
			samples[k].late = now.Sub(start) - due[k]
			queue <- job{k: k, release: now}
		}
		backlog = len(queue)
	}
	close(queue)
	wg.Wait()
	return samples, backlog
}

// postJSON sends one request body and reads the whole response.
func postJSON(client *http.Client, url string, body []byte, header http.Header) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range header {
		req.Header[k] = v
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// server is the in-process daemon on a loopback listener.
type server struct {
	url    string
	http   *http.Server
	client *http.Client
	done   chan error

	stopOnce sync.Once
	stopErr  error
}

const spanHeader = "X-Perfbench-Span"

// startServer mounts anond on a loopback listener. With a tracer, a
// wrapper handler records a span around anond's ServeHTTP, parented to
// the client's request span named in spanHeader.
func startServer(h http.Handler, tr *tracer) (*server, error) {
	if tr != nil {
		inner := h
		h = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			parent, err := strconv.Atoi(r.Header.Get(spanHeader))
			if err != nil { // an untimed warm-up request
				inner.ServeHTTP(w, r)
				return
			}
			sp := tr.begin("anond.serve", -1, parent)
			inner.ServeHTTP(w, r)
			tr.end(sp)
		})
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{
		url:  "http://" + ln.Addr().String() + "/v1/scenario",
		http: &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second},
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     serveConns,
			MaxIdleConnsPerHost: serveConns,
			DisableCompression:  true,
		}},
		done: make(chan error, 1),
	}
	go func() { s.done <- s.http.Serve(ln) }()
	return s, nil
}

// stop shuts the listener down and waits for the serve loop to exit. It
// may be called more than once.
func (s *server) stop() error {
	s.stopOnce.Do(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.stopErr = s.http.Shutdown(ctx)
		s.client.CloseIdleConnections()
		if err := <-s.done; !errors.Is(err, http.ErrServerClosed) && s.stopErr == nil {
			s.stopErr = err
		}
	})
	return s.stopErr
}

// serveBench holds one serve run's generated inputs.
type serveBench struct {
	p    params
	fam  []anond.ScenarioRequest
	reqs []serveReq // grown on demand; index j is request j
}

func (b *serveBench) request(j int) (serveReq, error) {
	for len(b.reqs) <= j {
		r, err := serveRequestAt(b.p.seed, b.fam, len(b.reqs))
		if err != nil {
			return serveReq{}, err
		}
		b.reqs = append(b.reqs, r)
	}
	return b.reqs[j], nil
}

// setup starts a daemon on a cold engine cache and warms it: one request
// per family config (cold engine builds), then a pass of requests to warm
// the connections and the runtime.
func (b *serveBench) setup(tr *tracer) (*server, error) {
	scenario.ResetEngines()
	srv, err := startServer(anond.New(anond.Options{}), tr)
	if err != nil {
		return nil, err
	}
	warm := func(body []byte) error {
		status, data, err := postJSON(srv.client, srv.url, body, nil)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("warm-up request answered %d: %s", status, data)
		}
		return err
	}
	for _, req := range b.fam {
		body, err := json.Marshal(&req)
		if err == nil {
			err = warm(body)
		}
		if err != nil {
			return nil, errors.Join(err, srv.stop())
		}
	}
	for k := 0; k < serveWarm; k++ {
		if err := warm(b.reqs[k%len(b.reqs)].body); err != nil {
			return nil, errors.Join(err, srv.stop())
		}
	}
	return srv, nil
}

// step runs one fixed rate and returns its samples and the backlog left
// when the last request was released.
func (b *serveBench) step(srv *server, tr *tracer, rate float64, dur time.Duration, idx int) ([]sample, int, error) {
	due := poissonSchedule(stats.ForkSeed(b.p.seed, int64(1<<50+idx)), rate, dur)
	if _, err := b.request(len(due)); err != nil {
		return nil, 0, err
	}
	send := func(k int) (int, []byte, error) {
		if tr == nil {
			return postJSON(srv.client, srv.url, b.reqs[k].body, nil)
		}
		sp := tr.begin("anond.request", k, -1)
		defer tr.end(sp)
		return postJSON(srv.client, srv.url, b.reqs[k].body, http.Header{spanHeader: {strconv.Itoa(sp)}})
	}
	samples, backlog := openLoop(send, due, serveConns)
	return samples, backlog, nil
}

func runServe(p params) (*report, error) {
	b := &serveBench{p: p, fam: serveFamilyOf(p.seed)}
	if _, err := b.request(serveWarm); err != nil {
		return nil, err
	}
	rep := newReport()
	var srv *server
	err := timeSetup(rep, func() (err error) {
		if srv != nil {
			if err := srv.stop(); err != nil {
				return err
			}
		}
		srv, err = b.setup(nil)
		return err
	})
	if err != nil {
		return nil, err
	}
	rep.notes["sustained_rps"] = fmt.Sprintf("rates %v req/s, limit %v, %d connections", serveRates, serveLimit, serveConns)

	if p.traced {
		return b.traced(srv, rep)
	}
	defer srv.stop()
	// The window is split evenly between the fixed rates and a final
	// closed-loop phase.
	phase := p.window() / time.Duration(len(serveRates)+1)
	var (
		all   [][]sample
		steal = startSteal()
	)
	for idx, rate := range serveRates {
		samples, backlog, err := b.step(srv, nil, rate, phase, idx)
		if err != nil {
			return nil, err
		}
		all = append(all, samples)
		checkGenerator(rep, rate, samples)
		lat := latencies(samples)
		t, ok := tailOf(lat)
		// A backlog the offered rate brings in within the limit is
		// queueing, not a daemon falling behind.
		if ok && t.value <= ms(serveLimit) && float64(backlog) <= rate*serveLimit.Seconds() {
			rep.endToEnd["sustained_rps"] = rate
		}
		rep.notes["sustained_rps"] += fmt.Sprintf("; at %g: p50 %.4g ms, p90 %.4g ms, p99 %.4g ms, tail %.4g ms (%s), backlog %d",
			rate, median(lat), quantile(lat, 0.9), quantile(lat, 0.99), t.value, t, backlog)
		if idx == 0 {
			latencyMetrics(rep, lat)
		}
	}
	// Read before the closed-loop phase: the responses it holds for
	// verification grow with the throughput the host allows.
	rep.endToEnd["peak_rss_mib"] = peakRSSMiB()
	cpu0, t0 := cpuTime(), time.Now()
	sat := saturate(func(k int) (int, []byte, error) {
		return postJSON(srv.client, srv.url, b.reqs[k%len(b.reqs)].body, nil)
	}, serveConns, phase)
	satDur, satCPU := time.Since(t0), cpuTime()-cpu0
	steal.note(rep)
	if err := srv.stop(); err != nil {
		return nil, err
	}

	v := newServeVerifier(b)
	dg := newDigester(serveDigestOps)
	for idx, samples := range all {
		for k, s := range samples {
			rep.attempted++
			canon, err := v.verify(k, s)
			if err != nil {
				rep.fail("rate %g request %d: %v", serveRates[idx], k, err)
				continue
			}
			countLate(rep, s)
			if idx == 0 {
				dg.add(k, canon)
			}
		}
	}
	good := 0
	for k, s := range sat {
		rep.attempted++
		if _, err := v.verify(k%len(b.reqs), s); err != nil {
			rep.fail("closed loop request %d: %v", k, err)
			continue
		}
		good++
	}
	dg.finish(rep)
	lat := latencies(sat)
	rep.endToEnd["ops_per_s"] = float64(good) / satDur.Seconds()
	rep.notes["ops_per_s"] = fmt.Sprintf("closed loop over %d connections for %.3g s: p50 %.4g ms, p99 %.4g ms", serveConns, satDur.Seconds(), median(lat), quantile(lat, 0.99))
	rep.endToEnd["cpu_ms_per_op"] = ms(satCPU) / float64(max(len(sat), 1))
	rep.notes["cpu_ms_per_op"] = "in the closed-loop phase"
	rep.endToEnd["error_ratio"] = float64(rep.failed) / float64(max(rep.attempted, 1))
	if _, ok := rep.endToEnd["sustained_rps"]; !ok {
		rep.endToEnd["sustained_rps"] = 0 // no rate met the limit
	}
	return rep, nil
}

// saturate sends requests back to back over conns connections for dur:
// each sender issues request k as soon as its previous one has returned,
// so the phase runs the daemon at the capacity that the fixed rates stay
// well below. It returns every request's outcome by k; latency runs from
// the send.
func saturate(send func(k int) (int, []byte, error), conns int, dur time.Duration) []sample {
	type result struct {
		k int
		s sample
	}
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		per      = make([][]result, conns)
		deadline = time.Now().Add(dur)
	)
	for c := range per {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				k := int(next.Add(1) - 1)
				t0 := time.Now()
				status, body, err := send(k)
				per[c] = append(per[c], result{k, sample{status: status, body: body, err: err, latency: time.Since(t0)}})
			}
		}()
	}
	wg.Wait()
	samples := make([]sample, next.Load())
	for _, rs := range per {
		for _, r := range rs {
			samples[r.k] = r.s
		}
	}
	return samples
}

// countLate counts a correct response answered after the latency limit as
// a failed request.
func countLate(rep *report, s sample) {
	if s.latency > serveLimit {
		rep.failed++
		rep.late++
	}
}

// checkGenerator invalidates a run whose generator fell behind: one that
// released requests later than the latency limit after they were due.
func checkGenerator(rep *report, rate float64, samples []sample) {
	if t, ok := tailOf(lateness(samples)); ok && t.value > ms(serveLimit) {
		rep.errs = append(rep.errs, fmt.Sprintf("generator fell behind at %g req/s: released %.4g ms late (%s)", rate, t.value, t))
	}
}

// lateness returns how late each request was released, in ms.
func lateness(samples []sample) []float64 {
	out := make([]float64, len(samples))
	for k, s := range samples {
		out[k] = ms(s.late)
	}
	return out
}

func latencies(samples []sample) []float64 {
	out := make([]float64, len(samples))
	for k, s := range samples {
		out[k] = ms(s.latency)
	}
	return out
}

// serveVerifier checks responses against direct scenario.Run results.
type serveVerifier struct {
	b      *serveBench
	family map[int][]byte
}

func newServeVerifier(b *serveBench) *serveVerifier {
	return &serveVerifier{b: b, family: map[int][]byte{}}
}

// expected returns the normalized wire form of a direct run of request j.
func (v *serveVerifier) expected(j int) ([]byte, error) {
	r := v.b.reqs[j]
	if want, ok := v.family[r.family]; ok && r.family >= 0 {
		return want, nil
	}
	cfg, err := scenarioConfig(r.req)
	if err != nil {
		return nil, err
	}
	res, err := scenario.Run(cfg)
	if err != nil {
		return nil, err
	}
	want, err := wireOf(res)
	if err == nil && r.family >= 0 {
		v.family[r.family] = want
	}
	return want, err
}

// verify checks one response: status 200 and a body that matches a
// direct scenario.Run of the same config byte for byte once elapsed time
// and the coalescing flag are cleared. The latency limit is the caller's.
func (v *serveVerifier) verify(j int, s sample) ([]byte, error) {
	switch {
	case s.err != nil:
		return nil, s.err
	case s.status != http.StatusOK:
		return nil, fmt.Errorf("status %d: %s", s.status, s.body)
	}
	got, _, err := normalizeBody(s.body)
	if err != nil {
		return nil, err
	}
	want, err := v.expected(j)
	if err != nil {
		return nil, err
	}
	if !bytes.Equal(got, want) {
		return nil, fmt.Errorf("response %s differs from direct run %s", got, want)
	}
	return got, nil
}

// traced runs the lowest rate twice, untraced then traced, for the
// tracing overhead, and then probes the layers under a request.
func (b *serveBench) traced(srv *server, rep *report) (*report, error) {
	rate := serveRates[0]
	half := b.p.window() / 2
	plain, _, err := b.step(srv, nil, rate, half, 0)
	if err != nil {
		return nil, errors.Join(err, srv.stop())
	}
	if err := srv.stop(); err != nil {
		return nil, err
	}
	tr := newTracer()
	srv, err = b.setup(tr)
	if err != nil {
		return nil, err
	}
	rw := startRuntimeWindow()
	cache0 := scenario.CacheStats()
	samples, backlog, err := b.step(srv, tr, rate, half, 0)
	if err != nil {
		return nil, errors.Join(err, srv.stop())
	}
	cache := scenario.CacheStats().Delta(cache0)
	rw.finish(len(samples), rep.layers)
	if err := srv.stop(); err != nil {
		return nil, err
	}
	rep.tracer = tr
	n := float64(max(len(samples), 1))
	cacheLayers(rep, cache, len(samples))
	rep.layers["trace.overhead_ratio"] = median(latencies(samples))/median(latencies(plain)) - 1
	rep.layers["gen.backlog"] = float64(backlog)
	checkGenerator(rep, rate, plain)
	checkGenerator(rep, rate, samples)
	if t, ok := tailOf(lateness(samples)); ok {
		rep.layers["gen.late_ms"] = t.value
		rep.notes["gen.late_ms"] = t.String()
	}

	// anond.net_us: a request's client-side time minus its serve span.
	spans := tr.snapshot()
	var net []float64
	for _, s := range spans {
		if s.Name == "anond.serve" && s.End >= 0 && spans[s.Parent].End >= 0 {
			net = append(net, float64(spans[s.Parent].dur()-s.dur())/1e3)
		}
	}
	rep.layers["anond.net_us"] = medianOr0(net)
	rep.layers["anond.serve_us"] = tr.medianOf("anond.serve", time.Microsecond)

	v := newServeVerifier(b)
	for k, s := range plain {
		rep.attempted++
		if _, err := v.verify(k, s); err != nil {
			rep.fail("untraced request %d: %v", k, err)
		} else {
			countLate(rep, s)
		}
	}
	dg := newDigester(serveDigestOps)
	var coalesced, non200 int
	for k, s := range samples {
		rep.attempted++
		if s.err == nil && s.status != http.StatusOK {
			non200++
		}
		if s.status == http.StatusOK {
			if _, c, err := normalizeBody(s.body); err == nil && c {
				coalesced++
			}
		}
		canon, err := v.verify(k, s)
		if err != nil {
			rep.fail("request %d: %v", k, err)
			continue
		}
		countLate(rep, s)
		dg.add(k, canon)
	}
	dg.finish(rep)
	rep.layers["anond.coalesced_ratio"] = float64(coalesced) / n
	rep.layers["anond.non200_ratio"] = float64(non200) / n
	if err := b.probe(tr, rep); err != nil {
		return nil, err
	}
	rep.layers["trace.spans"] = float64(len(tr.closed()))
	return rep, nil
}

// probe times the layers under one request, off the open loop, over the
// family's configs and the run's first Monte-Carlo requests.
func (b *serveBench) probe(tr *tracer, rep *report) error {
	pid := tr.begin("probe", -1, -1)
	defer tr.end(pid)
	var decode, encode, lookup, runExact, engine, runMC []float64
	for f, req := range b.fam {
		body, err := json.Marshal(&req)
		if err != nil {
			return err
		}
		d, err := tr.timeN("anond.decode", f, pid, probeReps, func() error {
			var r anond.ScenarioRequest
			dec := json.NewDecoder(bytes.NewReader(body))
			dec.DisallowUnknownFields()
			return dec.Decode(&r)
		})
		if err != nil {
			return err
		}
		decode = append(decode, us(d))
		cfg, err := scenarioConfig(req)
		if err != nil {
			return err
		}
		var res scenario.Result
		d, err = tr.timeN("scenario.run_exact", f, pid, probeReps, func() (err error) {
			res, err = scenario.Run(cfg)
			return err
		})
		if err != nil {
			return err
		}
		runExact = append(runExact, us(d))
		var wire anond.ScenarioResponse
		wb, err := wireOf(res)
		if err == nil {
			err = json.Unmarshal(wb, &wire)
		}
		if err != nil {
			return err
		}
		d, err = tr.timeN("anond.encode", f, pid, probeReps, func() error {
			enc := json.NewEncoder(io.Discard)
			enc.SetIndent("", "  ")
			return enc.Encode(&wire)
		})
		if err != nil {
			return err
		}
		encode = append(encode, us(d))
		d, err = tr.timeN("pathsel.lookup", f, pid, probeReps, func() error {
			_, err := pathsel.Lookup(req.Strategy)
			return err
		})
		if err != nil {
			return err
		}
		lookup = append(lookup, us(d))
		d, err = tr.timeN("scenario.engine_lookup_hot", f, pid, probeReps, func() error {
			_, err := scenario.Engine(req.N, req.Compromised)
			return err
		})
		if err != nil {
			return err
		}
		engine = append(engine, us(d))
	}
	for j, mc := 0, 0; mc < 8 && j < len(b.reqs); j++ {
		if b.reqs[j].family >= 0 {
			continue
		}
		cfg, err := scenarioConfig(b.reqs[j].req)
		if err != nil {
			return err
		}
		d, err := tr.timeN("scenario.run_mc", j, pid, 1, func() error {
			_, err := scenario.Run(cfg)
			return err
		})
		if err != nil {
			return err
		}
		runMC = append(runMC, ms(d))
		mc++
	}
	rep.layers["anond.decode_us"] = medianOr0(decode)
	rep.layers["anond.encode_us"] = medianOr0(encode)
	rep.layers["pathsel.lookup_us"] = medianOr0(lookup)
	rep.layers["scenario.run_exact_us"] = medianOr0(runExact)
	rep.layers["scenario.engine_hit_us"] = medianOr0(engine)
	rep.layers["scenario.run_mc_ms"] = medianOr0(runMC)
	return nil
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
