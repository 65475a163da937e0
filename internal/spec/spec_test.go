package spec

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"batsched/internal/sched"
	"batsched/internal/sweep"
)

// fullScenario exercises every spec feature: preset and custom batteries,
// capacity overrides, heterogeneous banks, all three load sources, bare and
// parameterised solvers, and a non-default grid.
func fullScenario(t *testing.T) Scenario {
	t.Helper()
	lookahead, err := NamedSolver("lookahead", LookaheadParams{Horizon: 5})
	if err != nil {
		t.Fatal(err)
	}
	optimal, err := NamedSolver("optimal", OptimalParams{Parallel: true, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	return Scenario{
		Banks: []Bank{
			{Battery: &Battery{Preset: "B1"}, Count: 2},
			{Name: "scaled", Battery: &Battery{Preset: "B2", Capacity: 22}},
			{Batteries: []Battery{
				{Preset: "B1"},
				{Capacity: 5.5, C: 0.166, KPrime: 0.122, Label: "custom"},
			}},
		},
		Loads: []Load{
			{Paper: "ILs alt"},
			{Paper: "CL 250", HorizonMin: 300},
			{Name: "inline", Segments: []Segment{{DurationMin: 1, CurrentA: 0.5}, {DurationMin: 2, CurrentA: 0}}},
			{Name: "texty", Text: "3x(1.0 0.25 1.0 0)\n"},
		},
		Solvers: []Solver{
			{Name: "sequential"},
			{Name: "bestof"},
			lookahead,
			optimal,
			{Name: "optimal-ta"},
		},
		Grids: []Grid{{}, {StepMin: 0.02, UnitAmpMin: 0.02}},
	}
}

// TestRoundTripByteStable is the golden round-trip: encode → decode →
// encode must produce identical bytes, for both compact and parameterised
// solver forms.
func TestRoundTripByteStable(t *testing.T) {
	sc := fullScenario(t)
	first, err := json.Marshal(sc)
	if err != nil {
		t.Fatal(err)
	}
	var decoded Scenario
	if err := json.Unmarshal(first, &decoded); err != nil {
		t.Fatal(err)
	}
	second, err := json.Marshal(decoded)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("round trip not byte-stable:\n first %s\nsecond %s", first, second)
	}
	// A third generation must also be stable (idempotence, not ping-pong).
	var again Scenario
	if err := json.Unmarshal(second, &again); err != nil {
		t.Fatal(err)
	}
	third, err := json.Marshal(again)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(second, third) {
		t.Fatalf("third generation differs:\n%s\n%s", second, third)
	}
}

// TestGoldenWireFormat pins the exact wire format of a scenario, including
// the two solver encodings from the issue: a bare string and a
// {"name":params} object.
func TestGoldenWireFormat(t *testing.T) {
	golden := `{"banks":[{"battery":{"preset":"B1"},"count":2}],` +
		`"loads":[{"paper":"ILs alt"}],` +
		`"solvers":["bestof",{"lookahead":{"horizon":60}},"optimal-ta"]}`
	sc, err := ParseScenario([]byte(golden))
	if err != nil {
		t.Fatal(err)
	}
	out, err := json.Marshal(sc)
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != golden {
		t.Fatalf("golden wire format drifted:\n got %s\nwant %s", out, golden)
	}
	if sc.Solvers[1].Name != "lookahead" || string(sc.Solvers[1].Params) != `{"horizon":60}` {
		t.Fatalf("parameterised solver decoded wrong: %+v", sc.Solvers[1])
	}
}

func TestParseScenarioRejectsUnknownFields(t *testing.T) {
	if _, err := ParseScenario([]byte(`{"banks":[],"frobnicate":1}`)); err == nil {
		t.Fatal("accepted unknown top-level field")
	}
}

func TestSolverWireForms(t *testing.T) {
	var s Solver
	if err := json.Unmarshal([]byte(`"montecarlo"`), &s); err != nil || s.Name != "montecarlo" || s.Params != nil {
		t.Fatalf("string form: %+v %v", s, err)
	}
	if err := json.Unmarshal([]byte(`{"optimal": {"parallel": true}}`), &s); err != nil {
		t.Fatal(err)
	}
	if s.Name != "optimal" || string(s.Params) != `{"parallel":true}` {
		t.Fatalf("object form: %+v", s)
	}
	for _, bad := range []string{`{}`, `{"a":{},"b":{}}`, `42`, `["optimal"]`} {
		if err := json.Unmarshal([]byte(bad), &s); err == nil {
			t.Errorf("accepted solver %s", bad)
		}
	}
}

func TestScenarioCompile(t *testing.T) {
	sc := fullScenario(t)
	sp, err := sc.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Banks) != 3 || len(sp.Loads) != 4 || len(sp.Policies) != 5 || len(sp.Grids) != 2 {
		t.Fatalf("compiled sizes: %d banks, %d loads, %d policies, %d grids",
			len(sp.Banks), len(sp.Loads), len(sp.Policies), len(sp.Grids))
	}
	wantBanks := []string{"2xB1", "scaled", "B1+custom"}
	for i, want := range wantBanks {
		if sp.Banks[i].Name != want {
			t.Errorf("bank %d name %q, want %q", i, sp.Banks[i].Name, want)
		}
	}
	if sp.Banks[1].Batteries[0].Capacity != 22 {
		t.Errorf("capacity override lost: %v", sp.Banks[1].Batteries[0])
	}
	wantLoads := []string{"ILs alt", "CL 250", "inline", "texty"}
	for i, want := range wantLoads {
		if sp.Loads[i].Name != want {
			t.Errorf("load %d name %q, want %q", i, sp.Loads[i].Name, want)
		}
	}
	if got := sp.Loads[3].Load.Len(); got != 6 {
		t.Errorf("text load epochs = %d, want 6 (3x repeat of two)", got)
	}
	if sp.Grids[0].Name != "paper" || sp.Grids[1].Name != "T0.02-G0.02" {
		t.Errorf("grid names: %q, %q", sp.Grids[0].Name, sp.Grids[1].Name)
	}
	if sp.Policies[3].OptimalWorkers != 2 || !sp.Policies[3].Optimal {
		t.Errorf("parallel optimal case: %+v", sp.Policies[3])
	}
}

// TestOptimalWorkersImpliesParallel: asking for a worker pool must not
// silently run the serial search.
func TestOptimalWorkersImpliesParallel(t *testing.T) {
	s, err := NamedSolver("optimal", OptimalParams{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	pc, err := BuildSolver(s)
	if err != nil {
		t.Fatal(err)
	}
	if pc.OptimalWorkers != 4 {
		t.Fatalf("workers=4 built %+v, want the parallel search", pc)
	}
	s, err = NamedSolver("optimal", OptimalParams{Parallel: true})
	if err != nil {
		t.Fatal(err)
	}
	pc, err = BuildSolver(s)
	if err != nil {
		t.Fatal(err)
	}
	if pc.OptimalWorkers < 1 {
		t.Fatalf("parallel with no pool size built %+v, want NumCPU workers", pc)
	}
	// An explicit count is honoured, also with parallel: one worker is one.
	s, err = NamedSolver("optimal", OptimalParams{Parallel: true, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	pc, err = BuildSolver(s)
	if err != nil {
		t.Fatal(err)
	}
	if pc.OptimalWorkers != 1 {
		t.Fatalf("parallel with workers=1 built %d workers, want 1", pc.OptimalWorkers)
	}
	// A pool past the search's cap is a parameter error, not a huge
	// allocation.
	for _, w := range []int{sched.MaxWorkers + 1, 1 << 30} {
		s, err = NamedSolver("optimal", OptimalParams{Workers: w})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := BuildSolver(s); !errors.Is(err, ErrSolverParams) {
			t.Fatalf("workers=%d: %v, want ErrSolverParams", w, err)
		}
	}
}

// TestCompiledScenarioRuns drives a compiled scenario through the sweep
// runner and checks a known Table 5 value arrives intact.
func TestCompiledScenarioRuns(t *testing.T) {
	sc := Scenario{
		Banks:   []Bank{{Battery: &Battery{Preset: "B1"}, Count: 2}},
		Loads:   []Load{{Paper: "CL alt"}},
		Solvers: []Solver{{Name: "sequential"}, {Name: "optimal"}},
	}
	sp, err := sc.Compile()
	if err != nil {
		t.Fatal(err)
	}
	results, err := sweep.Run(sp, sweep.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]float64{}
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.Policy, r.Err)
		}
		got[r.Policy] = r.Lifetime
	}
	if seq := got["sequential"]; seq < 5.39 || seq > 5.41 {
		t.Errorf("sequential lifetime %.2f, want ~5.40", seq)
	}
	if opt := got["optimal"]; opt < 6.45 || opt > 6.47 {
		t.Errorf("optimal lifetime %.2f, want ~6.46", opt)
	}
}

func TestValidationErrors(t *testing.T) {
	base := func() Scenario {
		return Scenario{
			Banks:   []Bank{{Battery: &Battery{Preset: "B1"}, Count: 2}},
			Loads:   []Load{{Paper: "ILs alt"}},
			Solvers: []Solver{{Name: "bestof"}},
		}
	}

	t.Run("unknown solver name", func(t *testing.T) {
		sc := base()
		sc.Solvers = []Solver{{Name: "greedy"}}
		if err := sc.Validate(); !errors.Is(err, ErrUnknownSolver) {
			t.Fatalf("got %v, want ErrUnknownSolver", err)
		}
	})
	t.Run("negative lookahead horizon", func(t *testing.T) {
		sc := base()
		s, err := NamedSolver("lookahead", LookaheadParams{Horizon: -5})
		if err != nil {
			t.Fatal(err)
		}
		sc.Solvers = []Solver{s}
		if err := sc.Validate(); !errors.Is(err, ErrSolverParams) {
			t.Fatalf("got %v, want ErrSolverParams", err)
		}
	})
	t.Run("too many batteries for optimal", func(t *testing.T) {
		sc := base()
		sc.Banks = []Bank{{Battery: &Battery{Preset: "B1"}, Count: sched.MaxOptimalBatteries + 1}}
		sc.Solvers = []Solver{{Name: "optimal"}}
		if err := sc.Validate(); !errors.Is(err, ErrTooManyBanks) {
			t.Fatalf("got %v, want ErrTooManyBanks", err)
		}
	})
	t.Run("too many distinct batteries for optimal", func(t *testing.T) {
		sc := base()
		// Nine distinct capacities: past 8 batteries the optimal search
		// needs interchangeable batteries for canonicalization to collapse.
		bats := make([]Battery, 9)
		for i := range bats {
			bats[i] = Battery{Preset: "B1", Capacity: 5.5 + float64(i)}
		}
		sc.Banks = []Bank{{Name: "diverse", Batteries: bats}}
		sc.Solvers = []Solver{{Name: "optimal"}}
		if err := sc.Validate(); !errors.Is(err, ErrTooManyBanks) {
			t.Fatalf("got %v, want ErrTooManyBanks", err)
		}
	})
	t.Run("analytic needs single battery", func(t *testing.T) {
		sc := base()
		sc.Solvers = []Solver{{Name: "analytic"}}
		if err := sc.Validate(); !errors.Is(err, ErrBankTooSmall) {
			t.Fatalf("got %v, want ErrBankTooSmall", err)
		}
	})
	t.Run("negative load horizon", func(t *testing.T) {
		sc := base()
		sc.Loads = []Load{{Paper: "ILs alt", HorizonMin: -1}}
		if err := sc.Validate(); !errors.Is(err, ErrBadHorizon) {
			t.Fatalf("got %v, want ErrBadHorizon", err)
		}
	})
	t.Run("ambiguous load source", func(t *testing.T) {
		sc := base()
		sc.Loads = []Load{{Paper: "ILs alt", Text: "1 0.5"}}
		if err := sc.Validate(); !errors.Is(err, ErrNoLoadSource) {
			t.Fatalf("got %v, want ErrNoLoadSource", err)
		}
	})
	t.Run("unknown preset", func(t *testing.T) {
		sc := base()
		sc.Banks = []Bank{{Battery: &Battery{Preset: "B9"}}}
		if err := sc.Validate(); !errors.Is(err, ErrUnknownPreset) {
			t.Fatalf("got %v, want ErrUnknownPreset", err)
		}
	})
	t.Run("solver parameter variants are a sweep axis", func(t *testing.T) {
		sc := base()
		s1, err := NamedSolver("montecarlo", MonteCarloParams{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		s2, err := NamedSolver("montecarlo", MonteCarloParams{Seed: 2})
		if err != nil {
			t.Fatal(err)
		}
		sc.Solvers = []Solver{s1, s2}
		sp, err := sc.Compile()
		if err != nil {
			t.Fatalf("two montecarlo seeds rejected: %v", err)
		}
		if sp.Policies[0].Name == sp.Policies[1].Name {
			t.Fatalf("variants share the name %q", sp.Policies[0].Name)
		}
		// Truly identical solvers are still duplicates.
		sc.Solvers = []Solver{s1, s1}
		if err := sc.Validate(); !errors.Is(err, ErrDuplicateName) {
			t.Fatalf("identical duplicate accepted: %v", err)
		}
	})
	t.Run("duplicate bank names", func(t *testing.T) {
		sc := base()
		sc.Banks = append(sc.Banks, Bank{Battery: &Battery{Preset: "B1"}, Count: 2})
		if err := sc.Validate(); !errors.Is(err, ErrDuplicateName) {
			t.Fatalf("got %v, want ErrDuplicateName", err)
		}
	})
	t.Run("unknown solver params", func(t *testing.T) {
		sc := base()
		sc.Solvers = []Solver{{Name: "lookahead", Params: json.RawMessage(`{"horzion":5}`)}}
		if err := sc.Validate(); !errors.Is(err, ErrSolverParams) {
			t.Fatalf("got %v, want ErrSolverParams", err)
		}
	})
	t.Run("params on parameterless solver", func(t *testing.T) {
		sc := base()
		sc.Solvers = []Solver{{Name: "sequential", Params: json.RawMessage(`{"x":1}`)}}
		if err := sc.Validate(); !errors.Is(err, ErrSolverParams) {
			t.Fatalf("got %v, want ErrSolverParams", err)
		}
	})
	t.Run("empty scenario", func(t *testing.T) {
		if err := (Scenario{}).Validate(); !errors.Is(err, ErrNoBanks) {
			t.Fatal("empty scenario accepted")
		}
	})
	t.Run("preset with c/kprime override", func(t *testing.T) {
		sc := base()
		sc.Banks = []Bank{{Battery: &Battery{Preset: "B1", C: 0.5}}}
		if err := sc.Validate(); !errors.Is(err, ErrBatteryParams) {
			t.Fatalf("got %v, want ErrBatteryParams", err)
		}
	})
	t.Run("distinct unnamed banks do not collide", func(t *testing.T) {
		sc := base()
		sc.Banks = []Bank{
			{Batteries: []Battery{{Preset: "B1"}, {Preset: "B1"}}},
			{Batteries: []Battery{{Preset: "B2"}, {Preset: "B2"}}},
		}
		if err := sc.Validate(); err != nil {
			t.Fatalf("distinct unnamed banks rejected: %v", err)
		}
	})
	t.Run("distinct unnamed inline loads do not collide", func(t *testing.T) {
		sc := base()
		sc.Loads = []Load{
			{Segments: []Segment{{DurationMin: 1, CurrentA: 0.25}}},
			{Segments: []Segment{{DurationMin: 1, CurrentA: 0.5}}},
		}
		if err := sc.Validate(); err != nil {
			t.Fatalf("distinct unnamed loads rejected: %v", err)
		}
	})
	t.Run("montecarlo bad generator", func(t *testing.T) {
		sc := base()
		s, err := NamedSolver("montecarlo", MonteCarloParams{Generator: "uniform"})
		if err != nil {
			t.Fatal(err)
		}
		sc.Solvers = []Solver{s}
		if err := sc.Validate(); !errors.Is(err, ErrSolverParams) {
			t.Fatalf("got %v, want ErrSolverParams", err)
		}
	})
}

func TestCanonicalSolver(t *testing.T) {
	// Aliases collapse to the canonical name.
	cs, err := CanonicalSolver(Solver{Name: "rr"})
	if err != nil {
		t.Fatal(err)
	}
	if cs.Name != "roundrobin" || cs.Params != nil {
		t.Fatalf("canonical of rr: %+v", cs)
	}
	// Case-insensitive, like Lookup.
	if cs, _ := CanonicalSolver(Solver{Name: "BestOf"}); cs.Name != "bestof" {
		t.Fatalf("canonical of BestOf: %+v", cs)
	}
	// Parameters are compacted; empty objects collapse to none.
	cs, err = CanonicalSolver(Solver{Name: "lookahead", Params: []byte("{ \"horizon\": 5 }")})
	if err != nil {
		t.Fatal(err)
	}
	if string(cs.Params) != `{"horizon":5}` {
		t.Fatalf("params not compacted: %s", cs.Params)
	}
	for _, empty := range []string{"{}", "null", " { } "} {
		cs, err := CanonicalSolver(Solver{Name: "bestof", Params: []byte(empty)})
		if err != nil {
			t.Fatalf("%q: %v", empty, err)
		}
		if cs.Params != nil {
			t.Fatalf("empty params %q kept: %s", empty, cs.Params)
		}
	}
	// Unknown names fail.
	if _, err := CanonicalSolver(Solver{Name: "greedy"}); !errors.Is(err, ErrUnknownSolver) {
		t.Fatalf("unknown solver: %v", err)
	}
	// Malformed params fail.
	if _, err := CanonicalSolver(Solver{Name: "lookahead", Params: []byte("{")}); !errors.Is(err, ErrSolverParams) {
		t.Fatalf("malformed params: %v", err)
	}
}

func TestRegistryCoverage(t *testing.T) {
	names := SolverNames()
	for _, want := range []string{
		"sequential", "roundrobin", "bestof", "lookahead",
		"optimal", "optimal-ta", "analytic", "montecarlo",
	} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("registry misses %q (have %v)", want, names)
		}
	}
	for _, alias := range []string{"seq", "rr", "best-of-two", "opt", "mc", "SEQ"} {
		if _, ok := Lookup(alias); !ok {
			t.Errorf("alias %q not resolvable", alias)
		}
	}
}

func TestRunScenarioLift(t *testing.T) {
	r := Run{
		Bank:   Bank{Battery: &Battery{Preset: "B1"}, Count: 2},
		Load:   Load{Paper: "ILs alt"},
		Solver: Solver{Name: "bestof"},
		Grid:   &Grid{StepMin: 0.02},
	}
	sc := r.Scenario()
	if len(sc.Banks) != 1 || len(sc.Loads) != 1 || len(sc.Solvers) != 1 || len(sc.Grids) != 1 {
		t.Fatalf("lifted scenario: %+v", sc)
	}
	if _, err := sc.Compile(); err != nil {
		t.Fatal(err)
	}
}

func TestCLIHelpers(t *testing.T) {
	b, err := CLIBattery("b2", 0)
	if err != nil || b.Capacity != 11 {
		t.Fatalf("CLIBattery b2: %v %v", b, err)
	}
	b, err = CLIBattery("B1", 7.5)
	if err != nil || b.Capacity != 7.5 {
		t.Fatalf("CLIBattery override: %v %v", b, err)
	}
	if _, err := CLIBattery("B3", 0); err == nil {
		t.Fatal("CLIBattery accepted unknown preset")
	}
	if _, err := CLIBattery("B1", -2); err == nil {
		t.Fatal("CLIBattery accepted negative capacity")
	}

	bank, err := CLIBank("2xB1")
	if err != nil {
		t.Fatal(err)
	}
	name, params, err := bank.Resolve()
	if err != nil || name != "2xB1" || len(params) != 2 {
		t.Fatalf("CLIBank 2xB1: %q %d %v", name, len(params), err)
	}
	for _, bad := range []string{"B1", "0xB1", "2xB9", "twoxB1"} {
		if _, err := CLIBank(bad); err == nil {
			t.Errorf("CLIBank accepted %q", bad)
		}
	}

	s, err := CLISolver("lookahead:5")
	if err != nil || s.Name != "lookahead" || !strings.Contains(string(s.Params), `"horizon":5`) {
		t.Fatalf("CLISolver lookahead:5: %+v %v", s, err)
	}
	s, err = CLISolver("seq")
	if err != nil || s.Name != "sequential" {
		t.Fatalf("CLISolver seq: %+v %v", s, err)
	}
	for _, bad := range []string{"greedy", "lookahead:-1", "lookahead:x"} {
		if _, err := CLISolver(bad); err == nil {
			t.Errorf("CLISolver accepted %q", bad)
		}
	}

	l, err := CLILoad("ILs alt", 200)
	if err != nil || l.Name() != "ILs alt" {
		t.Fatalf("CLILoad paper: %v %v", l, err)
	}
	if _, err := CLILoad("no such load", 200); err == nil {
		t.Fatal("CLILoad accepted unknown load")
	}
}

// TestMonteCarloSolver runs the montecarlo case end to end on a tiny
// sample budget and checks determinism across runs.
func TestMonteCarloSolver(t *testing.T) {
	s, err := NamedSolver("montecarlo", MonteCarloParams{Samples: 5, Seed: 7, Horizon: 30})
	if err != nil {
		t.Fatal(err)
	}
	sc := Scenario{
		Banks:   []Bank{{Battery: &Battery{Preset: "B1"}, Count: 2}},
		Loads:   []Load{{Paper: "ILs alt", HorizonMin: 30}},
		Solvers: []Solver{s},
	}
	sp, err := sc.Compile()
	if err != nil {
		t.Fatal(err)
	}
	run := func() float64 {
		results, err := sweep.Run(sp, sweep.Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if results[0].Err != nil {
			t.Fatal(results[0].Err)
		}
		if results[0].Decisions != 5 {
			t.Fatalf("decisions = %d, want the 5 samples", results[0].Decisions)
		}
		return results[0].Lifetime
	}
	first, second := run(), run()
	if first != second || first <= 0 {
		t.Fatalf("montecarlo not deterministic or degenerate: %v vs %v", first, second)
	}
}

// TestAnalyticSolver checks the analytic case agrees with the discrete
// model to within the paper's discretization error.
func TestAnalyticSolver(t *testing.T) {
	sc := Scenario{
		Banks:   []Bank{{Battery: &Battery{Preset: "B1"}}},
		Loads:   []Load{{Paper: "CL 500"}},
		Solvers: []Solver{{Name: "analytic"}},
	}
	sp, err := sc.Compile()
	if err != nil {
		t.Fatal(err)
	}
	results, err := sweep.Run(sp, sweep.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Err != nil {
		t.Fatal(results[0].Err)
	}
	// Paper Table 3: CL 500 lives 2.02 min on B1 (analytic KiBaM column).
	if lt := results[0].Lifetime; lt < 1.95 || lt > 2.1 {
		t.Fatalf("analytic CL 500 lifetime %.2f, want ~2.02", lt)
	}
}
