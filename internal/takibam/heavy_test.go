package takibam

import (
	"math"
	"os"
	"testing"

	"batsched/internal/battery"
	"batsched/internal/mc"
	"batsched/internal/sched"
)

// TestTAOptimalHeavyLoads drives the priced-timed-automata route on the
// larger Table 5 instances and checks it against the direct search.
//
//   - ILs 250 (~20 s, ~7M states) runs unless -short.
//   - ILl 250 (~2.5 min, ~53M states; measured TA optimum 78.92, equal to
//     the direct search) runs only with BATSCHED_HEAVY=1, so the default
//     suite stays fast. The result is recorded in EXPERIMENTS.md.
func TestTAOptimalHeavyLoads(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy TA searches")
	}
	ds := discs(t, battery.B1(), 2)
	loads := []struct {
		name   string
		budget int
	}{
		{"CL 250", 0},
		{"ILs 250", 0},
	}
	if os.Getenv("BATSCHED_HEAVY") != "" {
		loads = append(loads, struct {
			name   string
			budget int
		}{"ILl 250", 400_000_000})
	}
	for _, tc := range loads {
		cl := compiled(t, tc.name, 160)
		m, err := Build(ds, cl)
		if err != nil {
			t.Fatal(err)
		}
		sol, err := m.Solve(mc.Options{MaxStates: tc.budget})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		opt, err := sched.Solve(ds, cl, sched.Options{})
		if err != nil {
			t.Fatal(err)
		}
		direct := opt.Lifetime
		if math.Abs(sol.LifetimeMinutes-direct) > 1e-9 {
			t.Errorf("%s: TA %v vs direct %v", tc.name, sol.LifetimeMinutes, direct)
		}
		t.Logf("%s: optimal %.2f min, %d branch states, %d touched",
			tc.name, sol.LifetimeMinutes, sol.BranchStates, sol.TouchedStates)
	}
}
