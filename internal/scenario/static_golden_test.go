package scenario_test

// Golden characterization of the static (timeline-free) routed testbed:
// every measured Result field of a fixed config set — plain, onion and
// mix substrates, a fixed sender, multi-round sessions with identification
// tracking, and fault plans under each delivery policy — is pinned
// bit-exactly. JSON encodes a float64 in its shortest round-trip form, so
// a byte-identical file means bit-identical results. Regenerate
// intentionally with
//
//	go test ./internal/scenario -run TestStaticTestbedGolden -update
//
// and review the diff like any other behavior change.

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"anonmix/internal/faults"
	"anonmix/internal/scenario"
	"anonmix/internal/trace"
)

var update = flag.Bool("update", false, "regenerate the static testbed golden file")

// staticPin is the pinned projection of a Result: everything a static
// testbed run measures, without the wall-clock and kernel counters.
type staticPin struct {
	Name                   string
	H, StdErr, CI95        float64
	HRounds                []float64
	HDegraded              float64
	DeliveryRate           float64
	MeanAttempts           float64
	IdentifiedShare        float64
	MeanRoundsToIdentify   float64
	CompromisedSenderShare float64
	Deanonymized           int
	Trials                 int
	MaxH, Normalized       float64
}

func TestStaticTestbedGolden(t *testing.T) {
	base := func(p scenario.Protocol, w scenario.Workload) scenario.Config {
		w.Seed = 7
		return scenario.Config{
			N:            20,
			Backend:      scenario.BackendTestbed,
			StrategySpec: "uniform:1,5",
			Protocol:     p,
			// An unsorted explicit set: the kernel, the analyst and the
			// phase schedule must all read it as a set.
			Adversary: scenario.Adversary{Compromised: []trace.NodeID{17, 4, 9}},
			Workload:  w,
		}
	}
	faulted := func(p scenario.Protocol, plan faults.Plan, policy faults.Policy) scenario.Config {
		cfg := base(p, scenario.Workload{Messages: 300})
		cfg.Faults = &plan
		cfg.Reliability = faults.Reliability{Policy: policy}
		return cfg
	}
	crash := []faults.Crash{{Node: 2, At: 40, Recover: 220}}
	cases := []struct {
		name string
		cfg  scenario.Config
	}{
		{"plain", base(scenario.ProtocolPlain, scenario.Workload{Messages: 400})},
		{"onion", base(scenario.ProtocolOnion, scenario.Workload{Messages: 400})},
		{"mix", base(scenario.ProtocolMix, scenario.Workload{Messages: 400, BatchThreshold: 4})},
		{"fixed-sender", base(scenario.ProtocolPlain,
			scenario.Workload{Messages: 300, FixedSender: true, Sender: 5})},
		{"confidence-one-round", base(scenario.ProtocolPlain,
			scenario.Workload{Messages: 200, Confidence: 0.5})},
		{"rounds-plain", base(scenario.ProtocolPlain,
			scenario.Workload{Messages: 120, Rounds: 4, Confidence: 0.8})},
		{"rounds-onion", base(scenario.ProtocolOnion,
			scenario.Workload{Messages: 120, Rounds: 4, Confidence: 0.8})},
		{"rounds-fixed-sender", base(scenario.ProtocolPlain,
			scenario.Workload{Messages: 80, Rounds: 3, FixedSender: true, Sender: 5})},
		{"rounds-mix", base(scenario.ProtocolMix,
			scenario.Workload{Messages: 120, Rounds: 4, BatchThreshold: 4})},
		{"faults-none-crash", faulted(scenario.ProtocolPlain,
			faults.Plan{LinkLoss: 0.1, Crashes: crash}, faults.PolicyNone)},
		{"faults-retransmit", faulted(scenario.ProtocolPlain,
			faults.Plan{LinkLoss: 0.2}, faults.PolicyRetransmit)},
		{"faults-onion-retransmit", faulted(scenario.ProtocolOnion,
			faults.Plan{LinkLoss: 0.2}, faults.PolicyRetransmit)},
		{"faults-reroute-crash", faulted(scenario.ProtocolPlain,
			faults.Plan{LinkLoss: 0.2, Crashes: crash}, faults.PolicyReroute)},
	}
	pins := make([]staticPin, 0, len(cases))
	for _, tc := range cases {
		res, err := scenario.Run(tc.cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if res.Epochs != nil {
			t.Errorf("%s: static run reports %d epochs, want nil", tc.name, len(res.Epochs))
		}
		pins = append(pins, staticPin{
			Name: tc.name, H: res.H, StdErr: res.StdErr, CI95: res.CI95,
			HRounds: res.HRounds, HDegraded: res.HDegraded,
			DeliveryRate: res.DeliveryRate, MeanAttempts: res.MeanAttempts,
			IdentifiedShare: res.IdentifiedShare, MeanRoundsToIdentify: res.MeanRoundsToIdentify,
			CompromisedSenderShare: res.CompromisedSenderShare,
			Deanonymized:           res.Deanonymized, Trials: res.Trials,
			MaxH: res.MaxH, Normalized: res.Normalized,
		})
	}
	got, err := json.MarshalIndent(pins, "", "\t")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	golden := filepath.Join("testdata", "static_testbed.golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", golden, len(got))
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	var wantPins []staticPin
	if err := json.Unmarshal(want, &wantPins); err != nil {
		t.Fatalf("golden %s: %v", golden, err)
	}
	byName := make(map[string]staticPin, len(wantPins))
	for _, p := range wantPins {
		byName[p.Name] = p
	}
	for _, p := range pins {
		gb, _ := json.Marshal(p)
		wb, _ := json.Marshal(byName[p.Name])
		if !bytes.Equal(gb, wb) {
			t.Errorf("%s drifted:\n got  %s\n want %s", p.Name, gb, wb)
		}
	}
	if len(pins) != len(wantPins) {
		t.Errorf("%d pinned configs, golden has %d", len(pins), len(wantPins))
	}
}
