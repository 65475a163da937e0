// Benchmarks regenerating every table and figure of the paper, plus
// ablations over the design choices called out in DESIGN.md. Run with:
//
//	go test -bench=. -benchmem
//
// Each experiment benchmark measures the wall time of regenerating the
// published artefact; reported extra metrics carry the headline measured
// value (lifetime in minutes) so benchmark logs double as experiment logs.
package batsched_test

import (
	"testing"

	"batsched/internal/battery"
	"batsched/internal/dkibam"
	"batsched/internal/experiments"
	"batsched/internal/jobsched"
	"batsched/internal/kibam"
	"batsched/internal/load"
	"batsched/internal/lpta"
	"batsched/internal/mc"
	"batsched/internal/mcarlo"
	"batsched/internal/sched"
	"batsched/internal/takibam"
)

func discPair(b *testing.B, bat battery.Params) []*dkibam.Discretization {
	b.Helper()
	d, err := dkibam.Discretize(bat, dkibam.PaperStepMin, dkibam.PaperUnitAmpMin)
	if err != nil {
		b.Fatal(err)
	}
	return []*dkibam.Discretization{d, d}
}

func benchCompiled(b *testing.B, name string) load.Compiled {
	b.Helper()
	l, err := load.Paper(name, experiments.Horizon)
	if err != nil {
		b.Fatal(err)
	}
	cl, err := load.Compile(l, dkibam.PaperStepMin, dkibam.PaperUnitAmpMin)
	if err != nil {
		b.Fatal(err)
	}
	return cl
}

// BenchmarkTable3 regenerates Table 3: single-battery B1 lifetimes, one
// sub-benchmark per load, analytic and discretized per iteration.
func BenchmarkTable3(b *testing.B) {
	benchSingleBatteryTable(b, battery.B1())
}

// BenchmarkTable4 regenerates Table 4 (battery B2).
func BenchmarkTable4(b *testing.B) {
	benchSingleBatteryTable(b, battery.B2())
}

func benchSingleBatteryTable(b *testing.B, bat battery.Params) {
	model, err := kibam.New(bat)
	if err != nil {
		b.Fatal(err)
	}
	d := discPair(b, bat)[:1]
	for _, name := range load.PaperLoadNames {
		b.Run(name, func(b *testing.B) {
			l, err := load.Paper(name, experiments.Horizon)
			if err != nil {
				b.Fatal(err)
			}
			cl := benchCompiled(b, name)
			var analytic, discrete float64
			for i := 0; i < b.N; i++ {
				analytic, err = model.Lifetime(l)
				if err != nil {
					b.Fatal(err)
				}
				sys, err := dkibam.NewSystem(d, cl)
				if err != nil {
					b.Fatal(err)
				}
				discrete, err = sys.Run(sched.FixedChooser(0))
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(analytic, "kibam-min")
			b.ReportMetric(discrete, "dkibam-min")
		})
	}
}

// BenchmarkTable5 regenerates Table 5: two B1 batteries, all four
// scheduling schemes per load (optimal via the direct search).
func BenchmarkTable5(b *testing.B) {
	ds := discPair(b, battery.B1())
	for _, name := range load.PaperLoadNames {
		b.Run(name, func(b *testing.B) {
			cl := benchCompiled(b, name)
			var seq, rr, bo, opt float64
			var err error
			for i := 0; i < b.N; i++ {
				if seq, err = sched.Lifetime(ds, cl, sched.Sequential()); err != nil {
					b.Fatal(err)
				}
				if rr, err = sched.Lifetime(ds, cl, sched.RoundRobin()); err != nil {
					b.Fatal(err)
				}
				if bo, err = sched.Lifetime(ds, cl, sched.BestAvailable()); err != nil {
					b.Fatal(err)
				}
				res, err := sched.Solve(ds, cl, sched.Options{})
				if err != nil {
					b.Fatal(err)
				}
				opt = res.Lifetime
			}
			b.ReportMetric(seq, "seq-min")
			b.ReportMetric(rr, "rr-min")
			b.ReportMetric(bo, "bo2-min")
			b.ReportMetric(opt, "opt-min")
		})
	}
}

// BenchmarkTable5OptimalTA regenerates the Table 5 optimal column with the
// paper's method — minimum-cost reachability on the TA-KiBaM — on the loads
// the checker handles quickly. (ILl 250 needs a ~200M-state budget; see
// EXPERIMENTS.md.)
func BenchmarkTable5OptimalTA(b *testing.B) {
	ds := discPair(b, battery.B1())
	for _, name := range []string{"CL 500", "CL alt", "ILs alt", "ILs r1", "ILs r2", "ILl 500"} {
		b.Run(name, func(b *testing.B) {
			cl := benchCompiled(b, name)
			var lifetime float64
			for i := 0; i < b.N; i++ {
				m, err := takibam.Build(ds, cl)
				if err != nil {
					b.Fatal(err)
				}
				sol, err := m.Solve(mc.Options{})
				if err != nil {
					b.Fatal(err)
				}
				lifetime = sol.LifetimeMinutes
			}
			b.ReportMetric(lifetime, "opt-min")
		})
	}
}

// BenchmarkFigure6 regenerates both panels of Figure 6 (charge evolution
// and schedule under best-of-two and optimal on ILs alt).
func BenchmarkFigure6(b *testing.B) {
	b.Run("6a-best-of-two", func(b *testing.B) {
		var lifetime float64
		for i := 0; i < b.N; i++ {
			s, err := experiments.Figure6BestOfTwo(10)
			if err != nil {
				b.Fatal(err)
			}
			lifetime = s.Lifetime
		}
		b.ReportMetric(lifetime, "lifetime-min")
	})
	b.Run("6b-optimal", func(b *testing.B) {
		var lifetime float64
		for i := 0; i < b.N; i++ {
			s, err := experiments.Figure6Optimal(10)
			if err != nil {
				b.Fatal(err)
			}
			lifetime = s.Lifetime
		}
		b.ReportMetric(lifetime, "lifetime-min")
	})
}

// BenchmarkCapacityScaling regenerates the Section 6 capacity-scaling
// observation (continuous model, best-of-two).
func BenchmarkCapacityScaling(b *testing.B) {
	var frac float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.CapacityScaling([]float64{1, 2, 5, 10})
		if err != nil {
			b.Fatal(err)
		}
		frac = rows[len(rows)-1].RemainingFraction
	}
	b.ReportMetric(100*frac, "x10-left-%")
}

// BenchmarkIntegrators is the integration ablation: exact closed form vs
// Euler vs RK4 at two step sizes, computing the ILs alt lifetime.
func BenchmarkIntegrators(b *testing.B) {
	m := kibam.MustNew(battery.B1())
	l, err := load.Paper("ILs alt", 60)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("closed-form", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := m.Lifetime(l); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, tc := range []struct {
		name   string
		method kibam.Method
		h      float64
	}{
		{"euler-1e-3", kibam.Euler, 1e-3},
		{"euler-1e-4", kibam.Euler, 1e-4},
		{"rk4-1e-2", kibam.RK4, 1e-2},
		{"rk4-1e-3", kibam.RK4, 1e-3},
	} {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := m.LifetimeNumeric(l, tc.h, tc.method); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDiscretization is the grid ablation: lifetime error and cost of
// the discretized engine as the grid is refined (the Section 5 rounding
// discussion).
func BenchmarkDiscretization(b *testing.B) {
	analytic := 4.80 // ILs alt on B1, Table 3
	for _, grid := range []struct {
		name string
		t, g float64
	}{
		{"T0.04-G0.02", 0.04, 0.02},
		{"T0.02-G0.02", 0.02, 0.02},
		{"T0.01-G0.01", 0.01, 0.01}, // the paper's grid
		{"T0.005-G0.005", 0.005, 0.005},
		{"T0.002-G0.002", 0.002, 0.002},
	} {
		b.Run(grid.name, func(b *testing.B) {
			d, err := dkibam.Discretize(battery.B1().WithCapacity(5.5), grid.t, grid.g)
			if err != nil {
				b.Skipf("grid %v/%v: %v", grid.t, grid.g, err)
			}
			l, err := load.Paper("ILs alt", 60)
			if err != nil {
				b.Fatal(err)
			}
			cl, err := load.Compile(l, grid.t, grid.g)
			if err != nil {
				b.Skipf("compile: %v", err)
			}
			var lifetime float64
			for i := 0; i < b.N; i++ {
				sys, err := dkibam.NewSystem([]*dkibam.Discretization{d}, cl)
				if err != nil {
					b.Fatal(err)
				}
				lifetime, err = sys.Run(sched.FixedChooser(0))
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(lifetime, "lifetime-min")
			b.ReportMetric(100*(lifetime-analytic)/analytic, "err-%")
		})
	}
}

// BenchmarkOptimalSearch is the search ablation: direct branch-and-bound
// vs the generic timed-automata route on the same instance.
func BenchmarkOptimalSearch(b *testing.B) {
	ds := discPair(b, battery.B1())
	cl := benchCompiled(b, "ILs alt")
	b.Run("direct", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := sched.Solve(ds, cl, sched.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("ta-checker", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m, err := takibam.Build(ds, cl)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := m.Solve(mc.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSemantics is the delay-discipline ablation: event jumps vs
// exhaustive unit steps on a small TA-KiBaM instance.
func BenchmarkSemantics(b *testing.B) {
	small := battery.Params{Capacity: 1.0, C: battery.ItsyC, KPrime: battery.ItsyKPrime}
	d, err := dkibam.Discretize(small, dkibam.PaperStepMin, dkibam.PaperUnitAmpMin)
	if err != nil {
		b.Fatal(err)
	}
	ds := []*dkibam.Discretization{d, d}
	l, err := load.Paper("ILs 500", 60)
	if err != nil {
		b.Fatal(err)
	}
	cl, err := load.Compile(l, dkibam.PaperStepMin, dkibam.PaperUnitAmpMin)
	if err != nil {
		b.Fatal(err)
	}
	for _, sem := range []lpta.Semantics{lpta.EventSemantics, lpta.StepSemantics} {
		b.Run(sem.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m, err := takibam.Build(ds, cl)
				if err != nil {
					b.Fatal(err)
				}
				engine, err := m.Engine(sem)
				if err != nil {
					b.Fatal(err)
				}
				res, err := mc.MinCostReach(engine, m.Net.InitialState(), m.Goal(), mc.Options{})
				if err != nil {
					b.Fatal(err)
				}
				if !res.Found {
					b.Fatal("no schedule")
				}
			}
		})
	}
}

// BenchmarkJobScheduling measures the Section 7 job-over-time optimiser
// (sensor-node workload).
func BenchmarkJobScheduling(b *testing.B) {
	jobs := make([]jobsched.Job, 5)
	for i := range jobs {
		jobs[i] = jobsched.Job{Duration: 1, Current: 0.5}
	}
	var makespan float64
	for i := 0; i < b.N; i++ {
		plan, err := jobsched.Optimize(battery.B1(), jobs, jobsched.Options{GapQuantum: 0.5, MaxGap: 16})
		if err != nil {
			b.Fatal(err)
		}
		if !plan.Feasible {
			b.Fatal("infeasible")
		}
		makespan = plan.Makespan
	}
	b.ReportMetric(makespan, "makespan-min")
}

// BenchmarkMonteCarlo measures lifetime-distribution estimation for random
// loads (Section 7 outlook).
func BenchmarkMonteCarlo(b *testing.B) {
	params := []battery.Params{battery.B1(), battery.B1()}
	gen := mcarlo.RandomIntermittent(1, 120, 0.5)
	var mean float64
	for i := 0; i < b.N; i++ {
		d, err := mcarlo.LifetimeDistribution(params, sched.BestAvailable(), gen, 20, 1)
		if err != nil {
			b.Fatal(err)
		}
		mean = d.Mean
	}
	b.ReportMetric(mean, "mean-min")
}

// BenchmarkEngineSuccessors measures raw successor throughput of the LPTA
// engine on the two-battery TA-KiBaM initial state.
func BenchmarkEngineSuccessors(b *testing.B) {
	ds := discPair(b, battery.B1())
	cl := benchCompiled(b, "ILs alt")
	m, err := takibam.Build(ds, cl)
	if err != nil {
		b.Fatal(err)
	}
	engine, err := m.Engine(lpta.EventSemantics)
	if err != nil {
		b.Fatal(err)
	}
	s := m.Net.InitialState()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if succs := engine.Successors(s); len(succs) == 0 {
			b.Fatal("no successors")
		}
	}
}
