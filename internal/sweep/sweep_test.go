package sweep

import (
	"reflect"
	"sync"
	"testing"

	"batsched/internal/battery"
	"batsched/internal/core"
	"batsched/internal/sched"
)

func table5Spec(t *testing.T, loads []string) Spec {
	t.Helper()
	lcs, err := PaperLoads(loads, 200)
	if err != nil {
		t.Fatal(err)
	}
	return Spec{
		Banks:    []Bank{BankOf("2xB1", battery.B1(), 2)},
		Loads:    lcs,
		Policies: append(Policies(sched.Sequential(), sched.RoundRobin(), sched.BestAvailable()), OptimalCase()),
	}
}

// TestSweepMatchesDirect: every sweep cell must equal the corresponding
// direct core computation.
func TestSweepMatchesDirect(t *testing.T) {
	spec := table5Spec(t, []string{"CL alt", "ILs alt", "ILs 500"})
	results, err := Run(spec, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != spec.Scenarios() {
		t.Fatalf("got %d results, want %d", len(results), spec.Scenarios())
	}
	for _, lc := range spec.Loads {
		c, err := core.Compile(spec.Banks[0].Batteries, lc.Load, PaperGrid().StepMin, PaperGrid().UnitAmpMin)
		if err != nil {
			t.Fatal(err)
		}
		want := map[string]float64{}
		for _, p := range []sched.Policy{sched.Sequential(), sched.RoundRobin(), sched.BestAvailable()} {
			lt, err := c.PolicyLifetime(p)
			if err != nil {
				t.Fatal(err)
			}
			want[p.Name()] = lt
		}
		opt, err := c.Optimal(sched.Options{})
		if err != nil {
			t.Fatal(err)
		}
		want["optimal"] = opt.Lifetime
		for _, r := range results {
			if r.Load != lc.Name {
				continue
			}
			if r.Err != nil {
				t.Fatalf("%s/%s: %v", r.Load, r.Policy, r.Err)
			}
			if r.Lifetime != want[r.Policy] {
				t.Errorf("%s/%s: sweep %v, direct %v", r.Load, r.Policy, r.Lifetime, want[r.Policy])
			}
			if r.Decisions == 0 {
				t.Errorf("%s/%s: no decisions recorded", r.Load, r.Policy)
			}
			// Optimal cells report their search statistics; policy cells
			// have no search and must leave Stats nil.
			if r.Policy == "optimal" {
				if r.Stats == nil || r.Stats.States == 0 {
					t.Errorf("%s/%s: no search stats (%+v)", r.Load, r.Policy, r.Stats)
				}
			} else if r.Stats != nil {
				t.Errorf("%s/%s: unexpected search stats %+v", r.Load, r.Policy, r.Stats)
			}
		}
	}
}

// TestSweepDeterministicOrder: the result slice must be identical — same
// order, same values — for any worker count.
func TestSweepDeterministicOrder(t *testing.T) {
	spec := table5Spec(t, []string{"CL alt", "ILs alt", "ILs r2"})
	serial, err := Run(spec, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		parallel, err := Run(spec, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(serial, parallel) {
			t.Fatalf("results differ between 1 and %d workers", workers)
		}
	}
	// Nested order: loads iterate outside policies.
	i := 0
	for _, lc := range spec.Loads {
		for _, pc := range spec.Policies {
			r := serial[i]
			if r.Load != lc.Name || r.Policy != pc.Name || r.Bank != "2xB1" || r.Grid != "paper" {
				t.Fatalf("result %d is %s/%s/%s/%s, want paper/2xB1/%s/%s",
					i, r.Grid, r.Bank, r.Load, r.Policy, lc.Name, pc.Name)
			}
			i++
		}
	}
}

// TestSweepMultiGrid: grids multiply the scenario set, and a finer grid
// changes the discrete lifetime only within discretization error.
func TestSweepMultiGrid(t *testing.T) {
	lcs, err := PaperLoads([]string{"ILs alt"}, 60)
	if err != nil {
		t.Fatal(err)
	}
	spec := Spec{
		Banks:    []Bank{BankOf("1xB1", battery.B1(), 1)},
		Loads:    lcs,
		Policies: Policies(sched.Sequential()),
		Grids: []GridSpec{
			PaperGrid(),
			{StepMin: 0.02, UnitAmpMin: 0.02},
		},
	}
	results, err := Run(spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("got %d results, want 2", len(results))
	}
	if results[0].Grid != "paper" || results[1].Grid != "T0.02-G0.02" {
		t.Fatalf("grid names %q, %q", results[0].Grid, results[1].Grid)
	}
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.Grid, r.Err)
		}
		if r.Lifetime <= 0 {
			t.Fatalf("%s: lifetime %v", r.Grid, r.Lifetime)
		}
	}
	if d := results[0].Lifetime - results[1].Lifetime; d > 1 || d < -1 {
		t.Errorf("grids disagree beyond discretization error: %v vs %v", results[0].Lifetime, results[1].Lifetime)
	}
}

// TestSweepScenarioError: a cell that cannot compile fails alone without
// aborting the sweep.
func TestSweepScenarioError(t *testing.T) {
	lcs, err := PaperLoads([]string{"ILs alt"}, 60)
	if err != nil {
		t.Fatal(err)
	}
	bad := battery.B1()
	bad.Capacity = 5.5005 // not an integer number of 0.01 A·min units
	spec := Spec{
		Banks: []Bank{
			{Name: "bad", Batteries: []battery.Params{bad}},
			BankOf("good", battery.B1(), 1),
		},
		Loads:    lcs,
		Policies: Policies(sched.Sequential()),
	}
	results, err := Run(spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Err == nil {
		t.Error("bad bank did not fail")
	}
	if results[1].Err != nil {
		t.Errorf("good bank failed: %v", results[1].Err)
	}
	if results[1].Lifetime <= 0 {
		t.Errorf("good bank lifetime %v", results[1].Lifetime)
	}
}

// TestSweepSpecValidation: empty dimensions are rejected.
func TestSweepSpecValidation(t *testing.T) {
	lcs, err := PaperLoads([]string{"ILs alt"}, 60)
	if err != nil {
		t.Fatal(err)
	}
	banks := []Bank{BankOf("1xB1", battery.B1(), 1)}
	pols := Policies(sched.Sequential())
	for _, tc := range []struct {
		spec Spec
		want error
	}{
		{Spec{Loads: lcs, Policies: pols}, ErrNoBanks},
		{Spec{Banks: banks, Policies: pols}, ErrNoLoads},
		{Spec{Banks: banks, Loads: lcs}, ErrNoPolicies},
	} {
		if _, err := Run(tc.spec, Options{}); err != tc.want {
			t.Errorf("got %v, want %v", err, tc.want)
		}
	}
}

// TestLookupServesCellsWithoutCompiling: scenarios served by the Lookup
// hook are marked Cached, keep their deterministic spec labels, and — when
// a whole cell is covered — the cell is never compiled at all.
func TestLookupServesCellsWithoutCompiling(t *testing.T) {
	spec := table5Spec(t, []string{"CL alt", "ILs alt"})
	spec.Policies = Policies(sched.Sequential(), sched.BestAvailable())
	// Serve every scenario of the first load (cell 0) from the hook.
	perCell := len(spec.Policies)
	var compiled []string
	var mu sync.Mutex
	opts := Options{
		Workers: 2,
		Lookup: func(i int) (Result, bool) {
			if i/perCell == 0 {
				return Result{Lifetime: 42, Decisions: 7}, true
			}
			return Result{}, false
		},
		Compile: func(bank Bank, lc LoadCase, grid GridSpec) (*core.Compiled, error) {
			mu.Lock()
			compiled = append(compiled, lc.Name)
			mu.Unlock()
			return core.Compile(bank.Batteries, lc.Load, grid.StepMin, grid.UnitAmpMin)
		},
	}
	results, err := Run(spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		fromHook := i/perCell == 0
		if r.Cached != fromHook {
			t.Fatalf("result %d cached=%v, want %v", i, r.Cached, fromHook)
		}
		if fromHook {
			if r.Lifetime != 42 || r.Decisions != 7 {
				t.Fatalf("hook result %d not delivered: %+v", i, r)
			}
			// Labels come from the spec even for cached results.
			if r.Load != "CL alt" || r.Bank != "2xB1" || r.Grid != "paper" {
				t.Fatalf("hook result %d mislabeled: %+v", i, r)
			}
		} else if r.Err != nil {
			t.Fatalf("result %d: %v", i, r.Err)
		}
	}
	if len(compiled) != 1 || compiled[0] != "ILs alt" {
		t.Fatalf("compiled cells %v, want only the uncached ILs alt", compiled)
	}
}

// TestPolicyDecisionsMatchSchedule: the pooled count path must report
// exactly the decision count the schedule-recording path produces.
func TestPolicyDecisionsMatchSchedule(t *testing.T) {
	spec := table5Spec(t, []string{"ILs alt", "CL alt"})
	spec.Policies = Policies(sched.Sequential(), sched.RoundRobin(), sched.BestAvailable())
	results, err := Run(spec, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		var p sched.Policy
		switch r.Policy {
		case "sequential":
			p = sched.Sequential()
		case "round robin":
			p = sched.RoundRobin()
		case "best-of-two":
			p = sched.BestAvailable()
		}
		lcs, err := PaperLoads([]string{r.Load}, 200)
		if err != nil {
			t.Fatal(err)
		}
		c, err := core.Compile(battery.Bank(battery.B1(), 2), lcs[0].Load, PaperGrid().StepMin, PaperGrid().UnitAmpMin)
		if err != nil {
			t.Fatal(err)
		}
		lt, schedule, err := c.PolicyRun(p)
		if err != nil {
			t.Fatal(err)
		}
		if lt != r.Lifetime || len(schedule) != r.Decisions {
			t.Fatalf("%s/%s: sweep (%.4f, %d decisions) vs PolicyRun (%.4f, %d)",
				r.Load, r.Policy, r.Lifetime, r.Decisions, lt, len(schedule))
		}
	}
}
