package takibam

import (
	"math"
	"testing"

	"batsched/internal/battery"
	"batsched/internal/dkibam"
	"batsched/internal/load"
	"batsched/internal/lpta"
	"batsched/internal/mc"
	"batsched/internal/sched"
)

func discs(t *testing.T, b battery.Params, n int) []*dkibam.Discretization {
	t.Helper()
	d, err := dkibam.Discretize(b, dkibam.PaperStepMin, dkibam.PaperUnitAmpMin)
	if err != nil {
		t.Fatal(err)
	}
	ds := make([]*dkibam.Discretization, n)
	for i := range ds {
		ds[i] = d
	}
	return ds
}

func compiled(t *testing.T, name string, horizon float64) load.Compiled {
	t.Helper()
	l, err := load.Paper(name, horizon)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := load.Compile(l, dkibam.PaperStepMin, dkibam.PaperUnitAmpMin)
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

func TestBuildValidation(t *testing.T) {
	if _, err := Build(nil, load.Compiled{}); err == nil {
		t.Fatal("accepted empty bank")
	}
	d, err := dkibam.Discretize(battery.B1(), 0.02, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Build([]*dkibam.Discretization{d}, compiled(t, "CL 250", 10)); err == nil {
		t.Fatal("accepted grid mismatch")
	}
}

// TestSingleBatteryMatchesDirectEngine: the model checker run of the
// TA-KiBaM reproduces the direct discretized engine exactly, for every
// paper load on both batteries (40 comparisons). This is the central
// internal-consistency theorem of the reproduction: two independent
// implementations of the same semantics.
func TestSingleBatteryMatchesDirectEngine(t *testing.T) {
	if testing.Short() {
		t.Skip("full 2x10 load sweep")
	}
	for _, b := range []battery.Params{battery.B1(), battery.B2()} {
		ds := discs(t, b, 1)
		for _, name := range load.PaperLoadNames {
			cl := compiled(t, name, 200)
			m, err := Build(ds, cl)
			if err != nil {
				t.Fatal(err)
			}
			sol, err := m.Solve(mc.Options{})
			if err != nil {
				t.Fatalf("%s %s: %v", b.Label, name, err)
			}
			sys, err := dkibam.NewSystem(ds, cl)
			if err != nil {
				t.Fatal(err)
			}
			direct, err := sys.Run(sched.FixedChooser(0))
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(sol.LifetimeMinutes-direct) > 1e-9 {
				t.Errorf("%s %s: TA %v vs direct %v", b.Label, name, sol.LifetimeMinutes, direct)
			}
			// The minimum cost is the remaining charge at death.
			if int(sol.Cost) != sys.RemainingUnits() {
				t.Errorf("%s %s: cost %d vs remaining units %d", b.Label, name, sol.Cost, sys.RemainingUnits())
			}
		}
	}
}

// TestTwoBatteryOptimalMatchesDirectSearch: the paper's method (min-cost
// reachability on the TA network) and the independent branch-and-bound
// search agree on the optimal lifetime.
func TestTwoBatteryOptimalMatchesDirectSearch(t *testing.T) {
	if testing.Short() {
		t.Skip("optimal searches")
	}
	ds := discs(t, battery.B1(), 2)
	for _, name := range []string{"CL 500", "CL alt", "ILs alt", "ILs r1", "ILs r2", "ILl 500"} {
		cl := compiled(t, name, 200)
		m, err := Build(ds, cl)
		if err != nil {
			t.Fatal(err)
		}
		sol, err := m.Solve(mc.Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		opt, err := sched.Solve(ds, cl, sched.Options{})
		if err != nil {
			t.Fatal(err)
		}
		direct := opt.Lifetime
		if math.Abs(sol.LifetimeMinutes-direct) > 1e-9 {
			t.Errorf("%s: TA optimal %v vs direct optimal %v", name, sol.LifetimeMinutes, direct)
		}
	}
}

// TestScheduleFromTraceReplays: the go_on assignments extracted from the
// witness trace drive the deterministic engine to the same lifetime.
func TestScheduleFromTraceReplays(t *testing.T) {
	ds := discs(t, battery.B1(), 2)
	cl := compiled(t, "ILs alt", 200)
	m, err := Build(ds, cl)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := m.Solve(mc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(sol.Schedule) == 0 {
		t.Fatal("empty schedule")
	}
	// Convert assignments into a replayable schedule. The TA may emit an
	// extra zero-length assignment when a battery dies exactly at a job
	// boundary; on this load it does not, so counts line up.
	sys, err := dkibam.NewSystem(ds, cl)
	if err != nil {
		t.Fatal(err)
	}
	idx := 0
	lifetime, err := sys.Run(func(s *dkibam.System, dec dkibam.Decision) int {
		if idx >= len(sol.Schedule) {
			t.Fatalf("TA schedule exhausted at decision %d", idx)
		}
		a := sol.Schedule[idx]
		if a.Step != dec.Step {
			t.Fatalf("decision %d at step %d, TA says %d", idx, dec.Step, a.Step)
		}
		idx++
		return a.Battery
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(lifetime-sol.LifetimeMinutes) > 1e-9 {
		t.Fatalf("replayed TA schedule gives %v, TA says %v", lifetime, sol.LifetimeMinutes)
	}
}

// TestStepSemanticsAgreesWithEventSemantics: on a small configuration the
// exhaustive unit-delay exploration returns the same optimum as the
// event-jump exploration, certifying the jump optimisation for this model
// class.
func TestStepSemanticsAgreesWithEventSemantics(t *testing.T) {
	if testing.Short() {
		t.Skip("step-semantics exploration is slow")
	}
	// A small battery keeps the unit-step state count manageable.
	small := battery.Params{Capacity: 1.0, C: battery.ItsyC, KPrime: battery.ItsyKPrime, Label: "small"}
	ds := discs(t, small, 2)
	cl := compiled(t, "ILs 500", 60)
	m, err := Build(ds, cl)
	if err != nil {
		t.Fatal(err)
	}
	eventSol, err := m.Solve(mc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	engine, err := m.Engine(lpta.StepSemantics)
	if err != nil {
		t.Fatal(err)
	}
	res, err := mc.MinCostReach(engine, m.Net.InitialState(), m.Goal(), mc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Fatal("step semantics found no schedule")
	}
	if res.Cost != eventSol.Cost {
		t.Fatalf("step cost %d vs event cost %d", res.Cost, eventSol.Cost)
	}
}

// TestCostIsRemainingCharge: the paper's cost construction — at the goal
// the accumulated cost equals the summed remaining total charge.
func TestCostIsRemainingCharge(t *testing.T) {
	ds := discs(t, battery.B1(), 2)
	cl := compiled(t, "CL alt", 200)
	m, err := Build(ds, cl)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := m.Solve(mc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Drawn charge = 2N - cost; lifetime and cost must be consistent:
	// cheaper (more drawn) pairs with longer life on this fixed load.
	if sol.Cost <= 0 || sol.Cost >= 1100 {
		t.Fatalf("cost %d out of range", sol.Cost)
	}
	// The paper's Figure 6 observation: a large fraction of charge remains.
	frac := float64(sol.Cost) / 1100
	if frac < 0.5 || frac > 0.9 {
		t.Errorf("remaining fraction %.2f, expected the paper's 'large fraction' regime", frac)
	}
}

// TestGoalUnreachableOnShortHorizon: a too-short load cannot empty the
// batteries; Solve reports it.
func TestGoalUnreachableOnShortHorizon(t *testing.T) {
	ds := discs(t, battery.B1(), 1)
	cl := compiled(t, "CL 250", 2)
	m, err := Build(ds, cl)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Solve(mc.Options{}); err == nil {
		t.Fatal("no error on an exhausted horizon")
	}
}

// TestDeadlockFreedom: exhaustively explore a small two-battery model and
// verify every deadlock state is a proper end state (the maximum finder is
// done or the load is exhausted).
func TestDeadlockFreedom(t *testing.T) {
	small := battery.Params{Capacity: 0.5, C: battery.ItsyC, KPrime: battery.ItsyKPrime, Label: "tiny"}
	ds := discs(t, small, 2)
	cl := compiled(t, "CL 500", 30)
	m, err := Build(ds, cl)
	if err != nil {
		t.Fatal(err)
	}
	engine, err := m.Engine(lpta.EventSemantics)
	if err != nil {
		t.Fatal(err)
	}
	mfAuto := -1
	for i := 0; i < m.Net.Automata(); i++ {
		if m.Net.AutomatonName(lpta.AutoID(i)) == "maximum_finder" {
			mfAuto = i
		}
	}
	if mfAuto < 0 {
		t.Fatal("maximum finder not found")
	}
	bad := 0
	_, err = mc.Explore(engine, m.Net.InitialState(), nil, 3_000_000, func(s *lpta.State) bool {
		if len(engine.Successors(s)) == 0 {
			if m.Net.LocationName(lpta.AutoID(mfAuto), lpta.LocID(s.Locs[mfAuto])) != "done" {
				bad++
				t.Logf("non-final deadlock: %s", s.Format(m.Net))
				return false
			}
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if bad > 0 {
		t.Fatalf("%d deadlock states outside mf.done", bad)
	}
}
