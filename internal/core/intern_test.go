package core_test

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"batsched/internal/battery"
	"batsched/internal/core"
	"batsched/internal/dkibam"
	"batsched/internal/load"
	"batsched/internal/spec"
	"batsched/internal/sweep"
)

func paperLoad(t testing.TB, name string) load.Load {
	t.Helper()
	l, err := load.Paper(name, 200)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// TestCompileSharesDiscretizations: the same battery on the same grid is
// one table — across the members of a bank, across Compile calls, and
// between Compile and CompileBank.
func TestCompileSharesDiscretizations(t *testing.T) {
	ld := paperLoad(t, "ILs alt")
	a, err := core.Compile([]battery.Params{battery.B1(), battery.B1()}, ld, 0.01, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	ds := a.Discretizations()
	if ds[0] != ds[1] {
		t.Fatal("a bank of two B1s holds two tables for one battery")
	}
	b, err := core.Compile([]battery.Params{battery.B2(), battery.B1()}, paperLoad(t, "CL 250"), 0.01, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if b.Discretizations()[1] != ds[0] {
		t.Fatal("B1 on the same grid discretized again by a second Compile")
	}
	if b.Discretizations()[0] == ds[0] {
		t.Fatal("B2 shares B1's table")
	}
	bank, err := core.CompileBank([]battery.Params{battery.B1()}, 0.01, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if bank.Discretizations()[0] != ds[0] {
		t.Fatal("CompileBank has its own B1 table")
	}
	// battery.Bank numbers its members (B1#1, B1#2): each numbered member
	// is an entry of its own, shared by every artifact on that bank.
	x, err := core.Compile(battery.Bank(battery.B1(), 2), ld, 0.01, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	y, err := core.CompileBank(battery.Bank(battery.B1(), 2), 0.01, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range x.Discretizations() {
		if d != y.Discretizations()[i] {
			t.Fatalf("2xB1 member %d discretized twice", i)
		}
	}
	other, err := core.Compile(battery.Bank(battery.B1(), 2), ld, 0.02, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	if other.Discretizations()[0] == ds[0] {
		t.Fatal("two grids share one table")
	}
}

// TestCompileLabelsStaySeparate: a Discretization carries its Params, so a
// battery that differs only in Label gets a table of its own — one
// request's label never surfaces in another's artifact.
func TestCompileLabelsStaySeparate(t *testing.T) {
	ld := paperLoad(t, "ILs alt")
	renamed := battery.B1()
	renamed.Label = "cell-A"
	plain, err := core.Compile([]battery.Params{battery.B1()}, ld, 0.01, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	named, err := core.Compile([]battery.Params{renamed}, ld, 0.01, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	p, n := plain.Discretizations()[0], named.Discretizations()[0]
	if p == n {
		t.Fatal("differently labelled batteries share one table")
	}
	if p.Params.Label != battery.B1().Label || n.Params.Label != "cell-A" {
		t.Fatalf("labels leaked: %q and %q", p.Params.Label, n.Params.Label)
	}
}

// TestCompileFailuresNotShared: a failing battery reports its error on
// every call, and does not disturb the good entries.
func TestCompileFailuresNotShared(t *testing.T) {
	bad := battery.B1()
	bad.Capacity = 5.505 // not a whole number of 0.01 A·min units
	for i := 0; i < 2; i++ {
		if _, err := core.CompileBank([]battery.Params{bad}, 0.01, 0.01); err == nil {
			t.Fatalf("call %d: ungrained capacity compiled", i)
		}
	}
}

// TestCompileOversizeTableNotShared: a table above the shared table's
// memory budget is built per call and never kept, and the batteries that
// fit keep sharing theirs.
func TestCompileOversizeTableNotShared(t *testing.T) {
	huge := battery.B1()
	huge.Label = "huge"
	huge.Capacity = 22000 // 2.2M units of 0.01 A·min, above the 2Mi budget
	small, err := core.CompileBank([]battery.Params{battery.B1()}, 0.01, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	var first *dkibam.Discretization
	for i := 0; i < 2; i++ {
		c, err := core.CompileBank([]battery.Params{huge, battery.B1()}, 0.01, 0.01)
		if err != nil {
			t.Fatal(err)
		}
		ds := c.Discretizations()
		if i == 1 && ds[0] == first {
			t.Fatal("an oversize table was kept in the shared table")
		}
		first = ds[0]
		if ds[1] != small.Discretizations()[0] {
			t.Fatal("an oversize table displaced the shared B1 table")
		}
	}
}

// TestCompileConcurrentShares: concurrent Compile calls on overlapping
// batteries and grids all receive the one shared table per (battery,
// grid); run under -race this also checks the table's locking.
func TestCompileConcurrentShares(t *testing.T) {
	ld := paperLoad(t, "CL 250")
	grids := []float64{0.01, 0.025, 0.05}
	bats := []battery.Params{battery.B1(), battery.B2()}
	const goroutines = 8
	got := make([][]*dkibam.Discretization, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, step := range grids {
				c, err := core.Compile(bats, ld, step, step)
				if err != nil {
					t.Error(err)
					return
				}
				got[g] = append(got[g], c.Discretizations()...)
			}
		}()
	}
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		for i := range got[0] {
			if got[g][i] != got[0][i] {
				t.Fatalf("goroutine %d table %d differs from goroutine 0's", g, i)
			}
		}
	}
}

// render writes sweep results in a stable text form: every field the wire
// line carries, search statistics included.
func render(rs []sweep.Result) []byte {
	var b bytes.Buffer
	for _, r := range rs {
		fmt.Fprintf(&b, "%s %s %s %s %v %d", r.Grid, r.Bank, r.Load, r.Policy, r.Lifetime, r.Decisions)
		if r.Stats != nil {
			fmt.Fprintf(&b, " %+v", *r.Stats)
		}
		if r.Err != nil {
			fmt.Fprintf(&b, " err=%v", r.Err)
		}
		b.WriteByte('\n')
	}
	return b.Bytes()
}

// sweepBothWays runs a scenario with the shared tables (sweep's default
// compile, core.Compile) and with a reference that discretizes every
// battery of every cell afresh, and requires identical results.
func sweepBothWays(t *testing.T, sc spec.Scenario) {
	t.Helper()
	sp, err := sc.Compile()
	if err != nil {
		t.Fatal(err)
	}
	shared, err := sweep.Run(sp, sweep.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := sweep.Run(sp, sweep.Options{
		Compile: func(b sweep.Bank, lc sweep.LoadCase, g sweep.GridSpec) (*core.Compiled, error) {
			return core.CompileUninterned(b.Batteries, lc.Load, g.StepMin, g.UnitAmpMin)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := render(shared), render(ref); !bytes.Equal(got, want) {
		t.Fatalf("shared tables changed the output:\n got:\n%s\nwant:\n%s", got, want)
	}
}

func paperLoads() []spec.Load {
	loads := make([]spec.Load, len(load.PaperLoadNames))
	for i, name := range load.PaperLoadNames {
		loads[i] = spec.Load{Paper: name, HorizonMin: 200}
	}
	return loads
}

// TestSharedTablesTable5Identical: the paper's Table 5 grid (2xB1, every
// paper load, the four schedulers) is byte-identical with shared tables.
func TestSharedTablesTable5Identical(t *testing.T) {
	if testing.Short() {
		t.Skip("optimal sweep")
	}
	sweepBothWays(t, spec.Scenario{
		Banks: []spec.Bank{{Battery: &spec.Battery{Preset: "B1"}, Count: 2}},
		Loads: paperLoads(),
		Solvers: []spec.Solver{
			{Name: "sequential"}, {Name: "roundrobin"}, {Name: "bestof"}, {Name: "optimal"},
		},
	})
}

// TestSharedTablesMixedGridIdentical: a 200-cell sweep over five grids and
// a homogeneous plus a mixed bank is byte-identical with shared tables.
func TestSharedTablesMixedGridIdentical(t *testing.T) {
	steps := []float64{0.01, 0.02, 0.025, 0.05, 0.1}
	grids := make([]spec.Grid, len(steps))
	for i, g := range steps {
		grids[i] = spec.Grid{StepMin: g, UnitAmpMin: g}
	}
	sc := spec.Scenario{
		Banks: []spec.Bank{
			{Battery: &spec.Battery{Preset: "B1"}, Count: 2},
			{Batteries: []spec.Battery{{Preset: "B1"}, {Preset: "B2"}}},
		},
		Loads:   paperLoads(),
		Solvers: []spec.Solver{{Name: "sequential"}, {Name: "bestof"}},
		Grids:   grids,
	}
	sp, err := sc.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if n := sp.Scenarios(); n != 200 {
		t.Fatalf("scenario has %d cells, want 200", n)
	}
	sweepBothWays(t, sc)
}
