package scenario_test

// The scale acceptance test of the sharded kernel, driven through the full
// scenario stack: N = 1,000,000 nodes, 1,000 messages, adversarial
// analysis included — with goroutines and memory scaling with the shard
// count and the in-flight traffic, never with N.

import (
	"runtime"
	"testing"

	"anonmix/internal/scenario"
)

func TestMillionNodeScenario(t *testing.T) {
	res, err := scenario.Run(scenario.Config{
		N:            1_000_000,
		Backend:      scenario.BackendTestbed,
		StrategySpec: "uniform:1,7",
		Adversary:    scenario.Adversary{Count: 1000},
		Workload:     scenario.Workload{Messages: 1000, Seed: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trials != 1000 {
		t.Errorf("trials = %d", res.Trials)
	}
	if res.Kernel == nil {
		t.Fatal("no kernel stats")
	}
	// Kernel.Goroutines is the run's delta over the process baseline: the
	// shard goroutines, never O(N).
	if res.Kernel.Goroutines > runtime.GOMAXPROCS(0)+8 {
		t.Errorf("testbed added %d goroutines for N=1e6 (want O(shards))", res.Kernel.Goroutines)
	}
	// With C/N = 0.1% the anonymity degree stays near the log2(N) bound.
	if res.H <= 0.95*res.MaxH || res.H > res.MaxH {
		t.Errorf("H = %v bits, bound %v", res.H, res.MaxH)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if ms.HeapAlloc > 4<<30 {
		t.Errorf("heap after run = %d MiB (budget 4 GiB)", ms.HeapAlloc>>20)
	}
}

// TestMillionNodeChurnScenario: the dynamic-population machinery keeps the
// kernel's scale properties — a million-node timeline with joins, leaves,
// and time-phased compromise stays within the static run's goroutine
// budget and a heap budget that per-node membership state would exceed
// (churn state is per-churned-node, never O(N)).
func TestMillionNodeChurnScenario(t *testing.T) {
	res, err := scenario.Run(scenario.Config{
		N:            1_000_000,
		Backend:      scenario.BackendTestbed,
		StrategySpec: "uniform:1,7",
		Adversary:    scenario.Adversary{Count: 1000},
		Timeline: []scenario.Epoch{
			{Messages: 400},
			{Messages: 300, Join: 2000, Compromise: 500},
			{Messages: 300, Leave: 1000, Recover: 200},
		},
		Workload: scenario.Workload{Seed: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trials != 1000 {
		t.Errorf("trials = %d", res.Trials)
	}
	if res.Kernel == nil {
		t.Fatal("no kernel stats")
	}
	if res.Kernel.Churn != 3700 {
		t.Errorf("kernel churn events = %d, want 3700", res.Kernel.Churn)
	}
	if res.Kernel.Goroutines > runtime.GOMAXPROCS(0)+8 {
		t.Errorf("testbed added %d goroutines for N=1e6 churn (want O(shards))", res.Kernel.Goroutines)
	}
	if len(res.Epochs) != 3 {
		t.Fatalf("epochs = %+v", res.Epochs)
	}
	if res.Epochs[1].N != 1_002_000 || res.Epochs[1].C != 1500 {
		t.Errorf("epoch 1 population = (%d, %d), want (1002000, 1500)", res.Epochs[1].N, res.Epochs[1].C)
	}
	if res.Epochs[2].N != 1_001_000 || res.Epochs[2].C != 1300 {
		t.Errorf("epoch 2 population = (%d, %d), want (1001000, 1300)", res.Epochs[2].N, res.Epochs[2].C)
	}
	// With C/N ≈ 0.1–0.15% the anonymity degree stays near the bound.
	if res.H <= 0.95*res.MaxH || res.H > res.MaxH {
		t.Errorf("H = %v bits, bound %v", res.H, res.MaxH)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	// The budget is twice the heap measured with interval membership
	// (≈26 MiB, against ≈160 MiB when phases materialized per-node maps).
	if ms.HeapAlloc > 52<<20 {
		t.Errorf("heap after churn run = %d MiB (budget 52 MiB)", ms.HeapAlloc>>20)
	}
}
