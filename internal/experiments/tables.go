// Package experiments regenerates every table and figure of the evaluation
// sections of the DSN 2009 battery-scheduling paper and carries the paper's
// printed values for side-by-side comparison. cmd/tables and cmd/figures
// print the results; the integration tests assert the measured values stay
// within tolerance of the paper.
package experiments

import (
	"fmt"

	"batsched/internal/battery"
	"batsched/internal/core"
	"batsched/internal/dkibam"
	"batsched/internal/kibam"
	"batsched/internal/load"
	"batsched/internal/mc"
	"batsched/internal/sched"
)

// Horizon is the load horizon, in minutes, used for the paper experiments.
const Horizon = 200.0

// SingleBatteryRow is one row of Table 3 or Table 4: the lifetime of one
// battery under one load, in the analytic KiBaM and in the discretized
// (timed-automata) model, with the paper's printed values alongside.
type SingleBatteryRow struct {
	Load       string
	KiBaM      float64 // measured, analytic (closed form)
	TAKiBaM    float64 // measured, discretized engine
	TAChecker  float64 // measured, priced-timed-automata model checker
	PaperKiBaM float64
	PaperTA    float64
}

// DiffPercent returns the relative difference between the measured
// discretized and analytic lifetimes, as reported in the paper's last
// column.
func (r SingleBatteryRow) DiffPercent() float64 {
	if r.KiBaM == 0 {
		return 0
	}
	return 100 * (r.TAKiBaM - r.KiBaM) / r.KiBaM
}

// Paper values for Table 3 (battery B1) in PaperLoadNames order.
var paperTable3 = map[string][2]float64{
	"CL 250":  {4.53, 4.56},
	"CL 500":  {2.02, 2.04},
	"CL alt":  {2.58, 2.60},
	"ILs 250": {10.80, 10.84},
	"ILs 500": {4.30, 4.32},
	"ILs alt": {4.80, 4.82},
	"ILs r1":  {4.72, 4.74},
	"ILs r2":  {4.72, 4.74},
	"ILl 250": {21.86, 21.88},
	"ILl 500": {6.53, 6.56},
}

// Paper values for Table 4 (battery B2).
var paperTable4 = map[string][2]float64{
	"CL 250":  {12.16, 12.28},
	"CL 500":  {4.53, 4.54},
	"CL alt":  {6.45, 6.52},
	"ILs 250": {44.78, 44.80},
	"ILs 500": {10.80, 10.84},
	"ILs alt": {16.93, 16.94},
	"ILs r1":  {22.71, 22.74},
	"ILs r2":  {14.81, 14.84},
	"ILl 250": {84.90, 84.92},
	"ILl 500": {21.86, 21.88},
}

// SingleBatteryTable computes Table 3 (pass battery.B1()) or Table 4 (pass
// battery.B2()): the lifetime of the battery under the ten test loads in
// the analytic and in the discretized model. When viaChecker is set, each
// load is additionally run through the full priced-timed-automata model
// checker (slower, identical by construction to the discretized engine —
// asserted by the tests).
func SingleBatteryTable(b battery.Params, viaChecker bool) ([]SingleBatteryRow, error) {
	paper := paperTable3
	if b.Capacity == battery.B2().Capacity {
		paper = paperTable4
	}
	rows := make([]SingleBatteryRow, 0, len(load.PaperLoadNames))
	model, err := kibam.New(b)
	if err != nil {
		return nil, err
	}
	for _, name := range load.PaperLoadNames {
		l, err := load.Paper(name, Horizon)
		if err != nil {
			return nil, err
		}
		analytic, err := model.Lifetime(l)
		if err != nil {
			return nil, fmt.Errorf("%s analytic: %w", name, err)
		}
		p, err := core.NewProblem([]battery.Params{b}, l)
		if err != nil {
			return nil, err
		}
		discrete, err := p.DiscreteLifetime()
		if err != nil {
			return nil, fmt.Errorf("%s discrete: %w", name, err)
		}
		row := SingleBatteryRow{
			Load:       name,
			KiBaM:      analytic,
			TAKiBaM:    discrete,
			PaperKiBaM: paper[name][0],
			PaperTA:    paper[name][1],
		}
		if viaChecker {
			sol, err := p.OptimalLifetimeTA(mc.Options{})
			if err != nil {
				return nil, fmt.Errorf("%s checker: %w", name, err)
			}
			row.TAChecker = sol.LifetimeMinutes
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// Table3 computes Table 3 (battery B1).
func Table3(viaChecker bool) ([]SingleBatteryRow, error) {
	return SingleBatteryTable(battery.B1(), viaChecker)
}

// Table4 computes Table 4 (battery B2).
func Table4(viaChecker bool) ([]SingleBatteryRow, error) {
	return SingleBatteryTable(battery.B2(), viaChecker)
}

// SchedulingRow is one row of Table 5: the lifetime of two B1 batteries
// under one load for each scheduling scheme, with the paper's values
// alongside. Optimal is the direct branch-and-bound result; OptimalTA, when
// computed, is the priced-timed-automata result.
type SchedulingRow struct {
	Load       string
	Sequential float64
	RoundRobin float64
	BestOfTwo  float64
	Optimal    float64
	OptimalTA  float64 // 0 when not computed
	Paper      [4]float64
}

// Relative difference columns as printed in Table 5 (relative to round
// robin).
func (r SchedulingRow) SeqDiffPercent() float64 {
	return 100 * (r.Sequential - r.RoundRobin) / r.RoundRobin
}

// BestDiffPercent returns the best-of-two difference relative to round
// robin.
func (r SchedulingRow) BestDiffPercent() float64 {
	return 100 * (r.BestOfTwo - r.RoundRobin) / r.RoundRobin
}

// OptDiffPercent returns the optimal difference relative to round robin.
func (r SchedulingRow) OptDiffPercent() float64 {
	return 100 * (r.Optimal - r.RoundRobin) / r.RoundRobin
}

// Paper values for Table 5 (two B1 batteries): sequential, round robin,
// best-of-two, optimal.
var paperTable5 = map[string][4]float64{
	"CL 250":  {9.12, 11.60, 11.60, 12.04},
	"CL 500":  {4.10, 4.53, 4.53, 4.58},
	"CL alt":  {5.48, 6.10, 6.12, 6.48},
	"ILs 250": {22.80, 38.96, 38.96, 40.80},
	"ILs 500": {8.60, 10.48, 10.48, 10.48},
	"ILs alt": {12.38, 12.82, 16.30, 16.91},
	"ILs r1":  {12.80, 16.26, 16.26, 20.52},
	"ILs r2":  {12.24, 14.50, 14.50, 14.54},
	"ILl 250": {45.84, 76.00, 76.00, 78.96},
	"ILl 500": {12.94, 15.96, 15.96, 18.68},
}

// Table5Options tune the Table 5 computation.
type Table5Options struct {
	// ViaTA additionally computes the optimal lifetime through the
	// priced-timed-automata model checker for every load whose name is NOT
	// in SkipTA.
	ViaTA bool
	// SkipTA lists loads excluded from the (slow) TA computation; the
	// direct search covers them regardless.
	SkipTA map[string]bool
	// TAStateBudget bounds the checker's state count (0 = mc default).
	TAStateBudget int
	// Loads restricts the computation to the named loads (nil = all ten).
	Loads []string
}

// Table5 computes Table 5: two B1 batteries under the ten test loads for
// the four scheduling schemes.
func Table5(opts Table5Options) ([]SchedulingRow, error) {
	names := opts.Loads
	if names == nil {
		names = load.PaperLoadNames
	}
	d, err := dkibam.Discretize(battery.B1(), dkibam.PaperStepMin, dkibam.PaperUnitAmpMin)
	if err != nil {
		return nil, err
	}
	ds := []*dkibam.Discretization{d, d}
	rows := make([]SchedulingRow, 0, len(names))
	for _, name := range names {
		l, err := load.Paper(name, Horizon)
		if err != nil {
			return nil, err
		}
		cl, err := load.Compile(l, dkibam.PaperStepMin, dkibam.PaperUnitAmpMin)
		if err != nil {
			return nil, err
		}
		row := SchedulingRow{Load: name, Paper: paperTable5[name]}
		if row.Sequential, err = sched.Lifetime(ds, cl, sched.Sequential()); err != nil {
			return nil, fmt.Errorf("%s sequential: %w", name, err)
		}
		if row.RoundRobin, err = sched.Lifetime(ds, cl, sched.RoundRobin()); err != nil {
			return nil, fmt.Errorf("%s round robin: %w", name, err)
		}
		if row.BestOfTwo, err = sched.Lifetime(ds, cl, sched.BestAvailable()); err != nil {
			return nil, fmt.Errorf("%s best-of-two: %w", name, err)
		}
		res, err := sched.Solve(ds, cl, sched.Options{})
		if err != nil {
			return nil, fmt.Errorf("%s optimal: %w", name, err)
		}
		row.Optimal = res.Lifetime
		if opts.ViaTA && !opts.SkipTA[name] {
			p, err := core.NewProblem([]battery.Params{battery.B1(), battery.B1()}, l)
			if err != nil {
				return nil, err
			}
			sol, err := p.OptimalLifetimeTA(mc.Options{MaxStates: opts.TAStateBudget})
			if err != nil {
				return nil, fmt.Errorf("%s optimal TA: %w", name, err)
			}
			row.OptimalTA = sol.LifetimeMinutes
		}
		rows = append(rows, row)
	}
	return rows, nil
}
