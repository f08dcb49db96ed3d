package scenario

// Scale tests of the interval membership: deriving a timeline's schedule
// must cost O(epochs + churned identities) in memory, so these budgets
// cannot be met by any representation that touches every node.

import (
	"runtime"
	"testing"

	"anonmix/internal/faults"
)

// scaleTimeline is a four-epoch churn timeline with every delta kind.
var scaleTimeline = []Epoch{
	{Messages: 1000},
	{Messages: 1000, Join: 2000, Leave: 1000, Compromise: 200},
	{Messages: 1000, Join: 500, Compromise: 100, Recover: 150},
	{Messages: 1000, Leave: 700, Recover: 50},
}

// allocatedBytes reports the bytes f allocates (the TotalAlloc delta), the
// minimum over a few calls so a stray background allocation cannot fail
// the budget.
func allocatedBytes(t *testing.T, f func() error) uint64 {
	t.Helper()
	var best uint64
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		err := f()
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if d := after.TotalAlloc - before.TotalAlloc; i == 0 || d < best {
			best = d
		}
	}
	return best
}

func TestTimelineStatesScale(t *testing.T) {
	const n, c = 16_000_000, 1000
	var states []EpochState
	got := allocatedBytes(t, func() (err error) {
		states, err = TimelineStates(n, c, scaleTimeline)
		return err
	})
	if got >= 1<<20 {
		t.Errorf("TimelineStates(%d, %d) allocated %d KiB (budget 1 MiB)", n, c, got>>10)
	}
	want := [][2]int{{n, c}, {n + 1000, c + 200}, {n + 1500, c + 150}, {n + 800, c + 100}}
	for i, st := range states {
		if st.N != want[i][0] || st.C != want[i][1] {
			t.Errorf("epoch %d (N, C) = (%d, %d), want %v", i, st.N, st.C, want[i])
		}
	}
}

func TestNormalizeTimelineScale(t *testing.T) {
	cfg := Config{
		N:            1_000_000,
		Backend:      BackendTestbed,
		StrategySpec: "uniform:1,7",
		Adversary:    Adversary{Count: 1000},
		Timeline:     scaleTimeline,
		Faults:       &faults.Plan{LinkLoss: 0.05},
		Reliability:  faults.Reliability{Policy: faults.PolicyRetransmit},
		Workload:     Workload{Seed: 1},
	}
	got := allocatedBytes(t, func() error {
		_, err := normalize(cfg)
		return err
	})
	if got >= 1<<20 {
		t.Errorf("normalize of a million-node timeline allocated %d KiB (budget 1 MiB)", got>>10)
	}
}
