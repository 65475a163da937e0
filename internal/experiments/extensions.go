package experiments

import (
	"fmt"

	"batsched/internal/battery"
	"batsched/internal/dkibam"
	"batsched/internal/load"
	"batsched/internal/sched"
)

// LookaheadRow is one row of the model-predictive extension experiment:
// the online lookahead policy at several horizons next to best-of-two and
// the clairvoyant optimum, on two B1 batteries.
type LookaheadRow struct {
	Load      string
	BestOfTwo float64
	// Horizons maps the rollout horizon (minutes) to the lifetime.
	Horizons map[float64]float64
	Optimal  float64
}

// GapRecovered reports the fraction of the best-of-two-to-optimal gap the
// given horizon recovers (1 = reaches the optimum); 1 when there is no gap.
func (r LookaheadRow) GapRecovered(horizon float64) float64 {
	gap := r.Optimal - r.BestOfTwo
	if gap <= 0 {
		return 1
	}
	return (r.Horizons[horizon] - r.BestOfTwo) / gap
}

// LookaheadHorizons are the rollout horizons (minutes) the extension
// experiment sweeps.
var LookaheadHorizons = []float64{2, 5, 10}

// LookaheadTable runs the model-predictive extension on the ten paper
// loads: it quantifies how much of the gap the paper leaves between
// best-of-two and the optimal schedule an *online* policy can recover.
func LookaheadTable(loads []string) ([]LookaheadRow, error) {
	if loads == nil {
		loads = load.PaperLoadNames
	}
	d, err := dkibam.Discretize(battery.B1(), dkibam.PaperStepMin, dkibam.PaperUnitAmpMin)
	if err != nil {
		return nil, err
	}
	ds := []*dkibam.Discretization{d, d}
	rows := make([]LookaheadRow, 0, len(loads))
	for _, name := range loads {
		l, err := load.Paper(name, Horizon)
		if err != nil {
			return nil, err
		}
		cl, err := load.Compile(l, dkibam.PaperStepMin, dkibam.PaperUnitAmpMin)
		if err != nil {
			return nil, err
		}
		row := LookaheadRow{Load: name, Horizons: make(map[float64]float64, len(LookaheadHorizons))}
		if row.BestOfTwo, err = sched.Lifetime(ds, cl, sched.BestAvailable()); err != nil {
			return nil, fmt.Errorf("%s best-of-two: %w", name, err)
		}
		for _, h := range LookaheadHorizons {
			lt, err := sched.Lifetime(ds, cl, sched.Lookahead(h))
			if err != nil {
				return nil, fmt.Errorf("%s lookahead %g: %w", name, h, err)
			}
			row.Horizons[h] = lt
		}
		res, err := sched.Solve(ds, cl, sched.Options{})
		if err != nil {
			return nil, fmt.Errorf("%s optimal: %w", name, err)
		}
		row.Optimal = res.Lifetime
		rows = append(rows, row)
	}
	return rows, nil
}

// MultiBatteryRow is one row of the bank-size extension experiment: the
// schedulers on N identical B1 batteries under one load.
type MultiBatteryRow struct {
	Batteries  int
	Sequential float64
	RoundRobin float64
	BestOfN    float64
	Optimal    float64
}

// MultiBatteryTable scales the bank from 1 to maxBatteries identical B1
// cells on the given load. The paper only evaluates two batteries; the
// model and all searches generalise, and the recovery effect makes the
// lifetime grow *super-linearly* in the bank size on recovery-friendly
// loads (each battery gets proportionally more idle time).
func MultiBatteryTable(loadName string, maxBatteries int) ([]MultiBatteryRow, error) {
	d, err := dkibam.Discretize(battery.B1(), dkibam.PaperStepMin, dkibam.PaperUnitAmpMin)
	if err != nil {
		return nil, err
	}
	l, err := load.Paper(loadName, 4*Horizon)
	if err != nil {
		return nil, err
	}
	cl, err := load.Compile(l, dkibam.PaperStepMin, dkibam.PaperUnitAmpMin)
	if err != nil {
		return nil, err
	}
	rows := make([]MultiBatteryRow, 0, maxBatteries)
	for n := 1; n <= maxBatteries; n++ {
		ds := make([]*dkibam.Discretization, n)
		for i := range ds {
			ds[i] = d
		}
		row := MultiBatteryRow{Batteries: n}
		if row.Sequential, err = sched.Lifetime(ds, cl, sched.Sequential()); err != nil {
			return nil, fmt.Errorf("n=%d sequential: %w", n, err)
		}
		if row.RoundRobin, err = sched.Lifetime(ds, cl, sched.RoundRobin()); err != nil {
			return nil, fmt.Errorf("n=%d round robin: %w", n, err)
		}
		if row.BestOfN, err = sched.Lifetime(ds, cl, sched.BestAvailable()); err != nil {
			return nil, fmt.Errorf("n=%d best-of-N: %w", n, err)
		}
		res, err := sched.Solve(ds, cl, sched.Options{})
		if err != nil {
			return nil, fmt.Errorf("n=%d optimal: %w", n, err)
		}
		row.Optimal = res.Lifetime
		rows = append(rows, row)
	}
	return rows, nil
}
