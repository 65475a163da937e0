package core

import (
	"errors"
	"math"
	"testing"

	"batsched/internal/battery"
	"batsched/internal/load"
	"batsched/internal/mc"
	"batsched/internal/sched"
)

func ilsAlt(t *testing.T) load.Load {
	t.Helper()
	l, err := load.Paper("ILs alt", 200)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestNewProblemValidation(t *testing.T) {
	l := ilsAlt(t)
	if _, err := NewProblem(nil, l); !errors.Is(err, ErrNoBatteries) {
		t.Fatalf("no batteries: %v", err)
	}
	bad := battery.Params{Capacity: -1, C: 0.5, KPrime: 1}
	if _, err := NewProblem([]battery.Params{bad}, l); err == nil {
		t.Fatal("accepted invalid battery")
	}
	if _, err := NewProblem([]battery.Params{battery.B1()}, load.Load{}); err == nil {
		t.Fatal("accepted empty load")
	}
}

func TestAccessors(t *testing.T) {
	l := ilsAlt(t)
	p, err := NewProblem([]battery.Params{battery.B1()}, l, WithGrid(0.02, 0.01))
	if err != nil {
		t.Fatal(err)
	}
	step, unit := p.Grid()
	if step != 0.02 || unit != 0.01 {
		t.Fatalf("grid %v/%v", step, unit)
	}
	if p.Load().Name() != "ILs alt" {
		t.Fatal("load accessor")
	}
	bats := p.Batteries()
	bats[0].Capacity = 999
	if p.Batteries()[0].Capacity == 999 {
		t.Fatal("Batteries exposed internal state")
	}
}

func TestSingleBatteryLifetimes(t *testing.T) {
	p, err := NewProblem([]battery.Params{battery.B1()}, ilsAlt(t))
	if err != nil {
		t.Fatal(err)
	}
	analytic, err := p.AnalyticLifetime()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(analytic-4.80) > 0.005 {
		t.Fatalf("analytic %v, want 4.80", analytic)
	}
	discrete, err := p.DiscreteLifetime()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(discrete-4.82) > 1e-9 {
		t.Fatalf("discrete %v, want 4.82", discrete)
	}
}

func TestSingleBatteryOnlyGuards(t *testing.T) {
	p, err := NewProblem([]battery.Params{battery.B1(), battery.B1()}, ilsAlt(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.AnalyticLifetime(); !errors.Is(err, ErrSingleBattery) {
		t.Fatalf("analytic on 2 batteries: %v", err)
	}
	if _, err := p.DiscreteLifetime(); !errors.Is(err, ErrSingleBattery) {
		t.Fatalf("discrete on 2 batteries: %v", err)
	}
}

func TestPolicyAndOptimalAgreeWithTA(t *testing.T) {
	p, err := NewProblem([]battery.Params{battery.B1(), battery.B1()}, ilsAlt(t))
	if err != nil {
		t.Fatal(err)
	}
	best, err := p.PolicyLifetime(sched.BestAvailable())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(best-16.28) > 1e-9 {
		t.Fatalf("best-of-two %v, want 16.28", best)
	}
	res, err := p.Optimal(sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	opt, schedule := res.Lifetime, res.Schedule
	if math.Abs(opt-16.90) > 1e-9 {
		t.Fatalf("optimal %v, want 16.90", opt)
	}
	if opt < best {
		t.Fatal("optimal below best-of-two")
	}
	sol, err := p.OptimalLifetimeTA(mc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.LifetimeMinutes != opt {
		t.Fatalf("TA %v vs direct %v", sol.LifetimeMinutes, opt)
	}
	// Replaying the direct schedule through the tracer ends at the optimal
	// lifetime with all batteries empty.
	points, err := p.TraceSchedule(schedule, 10)
	if err != nil {
		t.Fatal(err)
	}
	last := points[len(points)-1]
	if math.Abs(last.Minutes-opt) > 1e-9 {
		t.Fatalf("trace ends at %v, want %v", last.Minutes, opt)
	}
}

func TestTracePolicyShape(t *testing.T) {
	p, err := NewProblem([]battery.Params{battery.B1(), battery.B1()}, ilsAlt(t))
	if err != nil {
		t.Fatal(err)
	}
	points, err := p.TracePolicy(sched.BestAvailable(), 25)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) < 10 {
		t.Fatalf("%d points", len(points))
	}
	first := points[0]
	if first.Minutes != 0 || first.Total[0] != 5.5 || first.Total[1] != 5.5 {
		t.Fatalf("initial point %+v", first)
	}
	for i := 1; i < len(points); i++ {
		if points[i].Minutes <= points[i-1].Minutes {
			t.Fatal("trace time not increasing")
		}
		for b := 0; b < 2; b++ {
			if points[i].Total[b] > points[i-1].Total[b]+1e-9 {
				t.Fatal("total charge increased")
			}
			if points[i].Available[b] > points[i].Total[b]+1e-9 {
				t.Fatal("available exceeds total")
			}
		}
	}
	// Available charge must rise somewhere (the recovery effect visible in
	// Figure 6).
	recovered := false
	for i := 1; i < len(points); i++ {
		for b := 0; b < 2; b++ {
			if points[i].Available[b] > points[i-1].Available[b]+1e-12 {
				recovered = true
			}
		}
	}
	if !recovered {
		t.Fatal("no recovery visible in the trace")
	}
}

func TestWithGridChangesDiscretization(t *testing.T) {
	// A coarser grid still reproduces the lifetime approximately.
	p, err := NewProblem([]battery.Params{battery.B1()}, ilsAlt(t), WithGrid(0.02, 0.01))
	if err != nil {
		t.Fatal(err)
	}
	lt, err := p.DiscreteLifetime()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(lt-4.80) > 0.1 {
		t.Fatalf("coarse-grid lifetime %v, want ~4.8", lt)
	}
}

func TestBuildTA(t *testing.T) {
	p, err := NewProblem([]battery.Params{battery.B1()}, ilsAlt(t))
	if err != nil {
		t.Fatal(err)
	}
	m, err := p.BuildTA()
	if err != nil {
		t.Fatal(err)
	}
	if m.B != 1 {
		t.Fatalf("TA built for %d batteries", m.B)
	}
	if !m.Net.Finalized() {
		t.Fatal("network not finalized")
	}
}
