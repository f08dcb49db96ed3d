// Command perfbench is the repository benchmark. One invocation runs one
// named workload for a fixed time with inputs generated from a seed,
// checks every output, and prints its metrics:
//
//	bash perfbench/run.sh --workload <serve|design|sessions|churn> \
//	    --seed <n> --seconds <s> --trace <0|1>
//
// An untraced run (--trace 0) reports the end-to-end metrics. A traced
// run (--trace 1) reports the per-layer metrics: it times calls into each
// layer's public functions from spans recorded at the benchmark's own call
// boundaries, and reports the tracing overhead against an untraced first
// half of the same run. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}. Every run also
// writes a record (host, seed, all metrics, output digest) under
// .bench_build/perfbench/; `perfbench compare a.json b.json` compares two
// records and refuses records from different hosts.
//
// README.md in this directory documents the workloads, the prediction
// table, the serve rates and latency limit, and the seed-host baseline.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// processStart is as close to process start as the program can observe;
// the first set-up repetition is timed from it.
var processStart = time.Now()

// params are one run's command-line inputs.
type params struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	outDir   string
}

func (p params) window() time.Duration { return time.Duration(p.seconds * float64(time.Second)) }

// report is what a workload hands back to main.
type report struct {
	attempted, failed int
	endToEnd          map[string]float64
	layers            map[string]float64
	// notes annotate metrics (the tail's percentile and sample count, the
	// serve rates) in the human table and the record.
	notes map[string]string
	// digest hashes the outputs of the run's first digestOps ops, which
	// must repeat exactly for a seed; digestOps is 0 when the run completed
	// fewer ops than that.
	digest    string
	digestOps int
	// errs holds the first ops that failed or answered wrong; any makes
	// the run incorrect.
	errs []string
	// late counts serve requests answered correctly but after the
	// latency limit: failed, but not wrong.
	late   int
	tracer *tracer
}

func newReport() *report {
	return &report{endToEnd: map[string]float64{}, layers: map[string]float64{}, notes: map[string]string{}}
}

// fail records an op that failed or answered wrong, with its reason (the
// first few are kept).
func (r *report) fail(format string, args ...any) {
	r.failed++
	if len(r.errs) < 10 {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
}

var runners = map[string]func(params) (*report, error){
	wServe:    runServe,
	wDesign:   runDesign,
	wSessions: runSessions,
	wChurn:    runChurn,
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareRecords(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var p params
	var traceFlag int
	fs.StringVar(&p.workload, "workload", "", "workload: "+strings.Join(workloads, ", "))
	fs.Int64Var(&p.seed, "seed", 1, "seed of the generated inputs")
	fs.Float64Var(&p.seconds, "seconds", 10, "measured window in seconds")
	fs.IntVar(&traceFlag, "trace", 0, "1 for the traced run (per-layer metrics)")
	fs.StringVar(&p.outDir, "out", filepath.Join(".bench_build", "perfbench"), "directory for run records, traces, and digests")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runner, ok := runners[p.workload]
	if !ok || p.seconds <= 0 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds > 0, --trace 0|1\n", strings.Join(workloads, ", "))
		return 2
	}
	p.traced = traceFlag == 1
	if err := os.MkdirAll(p.outDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	rep, err := runner(p)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := checkDigest(p, rep); err != nil {
		rep.errs = append(rep.errs, err.Error())
	}
	h := thisHost()
	printHuman(stdout, p, h, rep)
	if err := writeRecord(p, h, rep); err != nil {
		fmt.Fprintln(stderr, "perfbench: record:", err)
		return 1
	}
	line, err := resultLine(p, rep)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, line)
	return 0
}

// correct reports whether every op answered and was verified, and the
// digest matched.
func (r *report) correct() bool { return len(r.errs) == 0 }

// resultLine renders the JSON result line: the untraced run's end-to-end
// metrics or the traced run's layer metrics, each with its unit.
func resultLine(p params, r *report) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	add := func(name string, v float64) error {
		m, ok := lookupMetric(name)
		if !ok {
			return fmt.Errorf("metric %q is not in the catalogue", name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %q is %v", name, v)
		}
		metrics[name] = value{Value: v, Unit: m.unit}
		return nil
	}
	if p.traced {
		for _, m := range catalogue {
			if !m.endToEnd {
				if err := add(m.name, r.layers[m.name]); err != nil {
					return "", err
				}
			}
		}
	} else {
		for _, name := range jsonEndToEnd {
			if err := add(name, r.endToEnd[name]); err != nil {
				return "", err
			}
		}
	}
	out, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct(), max(r.attempted, 1), r.failed, metrics})
	return string(out), err
}

// printHuman prints the host record, every catalogue metric of the run's
// kind with its unit (or n/a), the traced layer table, and any failures.
func printHuman(w io.Writer, p params, h host, r *report) {
	mode := "untraced: end-to-end metrics"
	if p.traced {
		mode = "traced: per-layer metrics"
	}
	fmt.Fprintf(w, "perfbench %s seed=%d seconds=%g (%s)\n", p.workload, p.seed, p.seconds, mode)
	fmt.Fprintf(w, "host: commit=%s cpu=%q nproc=%d GOMAXPROCS=%d go=%s\n", h.Commit, h.CPU, h.NumCPU, h.GOMAXPROCS, h.GoVersion)
	for _, m := range catalogue {
		if m.endToEnd == p.traced {
			continue
		}
		vals := r.layers
		if m.endToEnd {
			vals = r.endToEnd
		}
		v, ok := vals[m.name]
		switch {
		case !m.applies(p.workload) || !ok:
			fmt.Fprintf(w, "  %-36s %14s %-6s\n", m.name, "n/a", m.unit)
		default:
			fmt.Fprintf(w, "  %-36s %14.6g %-6s %s\n", m.name, v, m.unit, r.notes[m.name])
		}
	}
	fmt.Fprintf(w, "ops: attempted=%d failed=%d (late %d) digest=%s (first %d ops)\n", r.attempted, r.failed, r.late, r.digest, r.digestOps)
	if n := r.notes["host_steal"]; n != "" {
		fmt.Fprintln(w, "host:", n)
	}
	if r.tracer != nil {
		writeTable(w, r.tracer.table())
	}
	for _, e := range r.errs {
		fmt.Fprintln(w, "FAIL:", e)
	}
}

// record is the full result of one run, written under the out directory.
type record struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Traced    bool               `json:"traced"`
	Host      host               `json:"host"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	EndToEnd  map[string]float64 `json:"end_to_end,omitempty"`
	Layers    map[string]float64 `json:"layers,omitempty"`
	Notes     map[string]string  `json:"notes,omitempty"`
	Digest    string             `json:"digest"`
	Errors    []string           `json:"errors,omitempty"`
}

func recordName(p params, suffix string) string {
	return filepath.Join(p.outDir, fmt.Sprintf("%s-seed%d-trace%d%s", p.workload, p.seed, btoi(p.traced), suffix))
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

func writeRecord(p params, h host, r *report) error {
	rec := record{
		Workload: p.workload, Seed: p.seed, Seconds: p.seconds, Traced: p.traced, Host: h,
		Correct: r.correct(), Attempted: r.attempted, Failed: r.failed,
		Notes: r.notes, Digest: r.digest, Errors: r.errs,
	}
	if p.traced {
		rec.Layers = r.layers
		if err := r.tracer.dump(recordName(p, ".spans.jsonl")); err != nil {
			return err
		}
	} else {
		rec.EndToEnd = r.endToEnd
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(recordName(p, ".json"), append(data, '\n'), 0o644)
}

// digester accumulates the canonical outputs of a run's first ops.
type digester struct {
	limit, n int
	buf      []byte
}

func newDigester(limit int) *digester { return &digester{limit: limit} }

// add folds op i's canonical output; ops must arrive in index order.
func (d *digester) add(i int, canon []byte) {
	if i != d.n || d.n >= d.limit {
		return
	}
	d.buf = append(d.buf, canon...)
	d.buf = append(d.buf, '\n')
	d.n++
}

func (d *digester) finish(r *report) {
	if d.n < d.limit {
		r.digest, r.digestOps = "short", 0
		return
	}
	h := sha256.Sum256(d.buf)
	r.digest, r.digestOps = hex.EncodeToString(h[:16]), d.n
}

// checkDigest compares the run's output digest with the one an earlier
// run of the same build, workload and seed left in the out directory.
// Outputs may legitimately change between builds in their last bits, so
// runs of different code are not compared; their correctness rests on
// the per-op checks.
func checkDigest(p params, r *report) error {
	if r.digestOps == 0 {
		return nil
	}
	build, err := buildID()
	if err != nil {
		return err
	}
	path := filepath.Join(p.outDir, fmt.Sprintf("digest-%s-seed%d-ops%d-build%s", p.workload, p.seed, r.digestOps, build))
	prev, err := os.ReadFile(path)
	switch {
	case errors.Is(err, os.ErrNotExist):
		return os.WriteFile(path, []byte(r.digest), 0o644)
	case err != nil:
		return err
	case string(prev) != r.digest:
		return fmt.Errorf("output digest %s differs from %s of an earlier run with seed %d", r.digest, prev, p.seed)
	}
	return nil
}

// buildID names the running binary by a hash of its contents.
func buildID() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(exe)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)[:8]), nil
}

// compareRecords prints the relative change of every metric between two
// run records, refusing records measured on different hosts.
func compareRecords(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: perfbench compare <base.json> <new.json>")
		return 2
	}
	var recs [2]record
	for i, path := range args {
		data, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(data, &recs[i])
		}
		if err != nil {
			fmt.Fprintln(stderr, "perfbench compare:", err)
			return 2
		}
	}
	a, b := recs[0], recs[1]
	if !a.Host.sameMachine(b.Host) {
		fmt.Fprintf(stderr, "perfbench compare: refusing cross-host comparison: %+v vs %+v\n", a.Host, b.Host)
		return 1
	}
	if a.Workload != b.Workload || a.Traced != b.Traced || math.Float64bits(a.Seconds) != math.Float64bits(b.Seconds) {
		fmt.Fprintln(stderr, "perfbench compare: records are of different workloads, modes, or run lengths")
		return 1
	}
	av, bv := a.EndToEnd, b.EndToEnd
	if a.Traced {
		av, bv = a.Layers, b.Layers
	}
	names := make([]string, 0, len(av))
	for name := range av {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(stdout, "%s: %s -> %s\n", a.Workload, a.Host.Commit, b.Host.Commit)
	for _, name := range names {
		x, y := av[name], bv[name]
		change := "n/a"
		if x != 0 {
			change = fmt.Sprintf("%+.1f%%", 100*(y-x)/math.Abs(x))
		}
		fmt.Fprintf(stdout, "  %-36s %14.6g %14.6g %10s\n", name, x, y, change)
	}
	return 0
}
