package experiments

import (
	"fmt"
	"io"

	"batsched/internal/battery"
	"batsched/internal/core"
	"batsched/internal/load"
	"batsched/internal/sched"
)

// Figure6Series is the data behind one panel of Figure 6: the evolution of
// the total and available charge of two B1 batteries under the ILs alt
// load, plus the battery schedule (right y-axis of the paper's plot).
type Figure6Series struct {
	// Panel names the scheduler: "best-of-two" (6a) or "optimal" (6b).
	Panel string
	// Lifetime is the system lifetime of the panel's schedule in minutes.
	Lifetime float64
	// Points sample time, total charge and available charge per battery,
	// and the discharging battery (-1 when idle).
	Points []core.TracePoint
	// Schedule lists the scheduling decisions.
	Schedule sched.Schedule
	// RemainingAmpMin is the total charge left in both batteries at death;
	// the paper reports approximately 3.9 A·min (70% of one battery).
	RemainingAmpMin float64
}

// figure6Problem builds the two-battery ILs alt problem of Figure 6.
func figure6Problem() (*core.Problem, error) {
	l, err := load.Paper("ILs alt", Horizon)
	if err != nil {
		return nil, err
	}
	return core.NewProblem([]battery.Params{battery.B1(), battery.B1()}, l)
}

// Figure6BestOfTwo regenerates Figure 6(a).
func Figure6BestOfTwo(sampleEvery int) (*Figure6Series, error) {
	p, err := figure6Problem()
	if err != nil {
		return nil, err
	}
	lifetime, schedule, err := p.PolicyRun(sched.BestAvailable())
	if err != nil {
		return nil, err
	}
	points, err := p.TraceSchedule(schedule, sampleEvery)
	if err != nil {
		return nil, err
	}
	return assembleFigure6("best-of-two", lifetime, points, schedule), nil
}

// Figure6Optimal regenerates Figure 6(b) using the direct optimal search
// (the timed-automata route yields the same lifetime; see the tests).
func Figure6Optimal(sampleEvery int) (*Figure6Series, error) {
	p, err := figure6Problem()
	if err != nil {
		return nil, err
	}
	res, err := p.Optimal(sched.Options{})
	if err != nil {
		return nil, err
	}
	points, err := p.TraceSchedule(res.Schedule, sampleEvery)
	if err != nil {
		return nil, err
	}
	return assembleFigure6("optimal", res.Lifetime, points, res.Schedule), nil
}

func assembleFigure6(panel string, lifetime float64, points []core.TracePoint, schedule sched.Schedule) *Figure6Series {
	s := &Figure6Series{
		Panel:    panel,
		Lifetime: lifetime,
		Points:   points,
		Schedule: schedule,
	}
	if len(points) > 0 {
		last := points[len(points)-1]
		for _, g := range last.Total {
			s.RemainingAmpMin += g
		}
	}
	return s
}

// WriteTSV renders the series as gnuplot-ready columns:
// time, total charge per battery, available charge per battery, chosen
// battery (0 = none, i+1 = battery i), matching the curves of Figure 6.
func (s *Figure6Series) WriteTSV(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "# Figure 6 (%s): lifetime %.2f min, %.2f A·min left\n", s.Panel, s.Lifetime, s.RemainingAmpMin); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w, "# time\ttotal1\ttotal2\tavail1\tavail2\tchosen"); err != nil {
		return err
	}
	for _, pt := range s.Points {
		if _, err := fmt.Fprintf(w, "%.2f", pt.Minutes); err != nil {
			return err
		}
		for _, g := range pt.Total {
			if _, err := fmt.Fprintf(w, "\t%.4f", g); err != nil {
				return err
			}
		}
		for _, a := range pt.Available {
			if _, err := fmt.Fprintf(w, "\t%.4f", a); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "\t%d\n", pt.Active+1); err != nil {
			return err
		}
	}
	return nil
}

// CapacityRow is one row of the Section 6 capacity-scaling experiment: two
// identical batteries at a multiple of B1's capacity, scheduled best-of-two
// on ILs alt, and the fraction of charge left behind at death. The paper
// states that at 10x capacity less than 10% remains.
type CapacityRow struct {
	// Factor scales B1's capacity.
	Factor float64
	// Lifetime is the system lifetime in minutes.
	Lifetime float64
	// RemainingFraction is the fraction of the initial charge unused.
	RemainingFraction float64
}

// CapacityScaling runs the experiment on the continuous model (the
// discretization's recovery-time clamp would distort very large
// capacities). The load is ILs alt, extended far enough for the largest
// battery.
func CapacityScaling(factors []float64) ([]CapacityRow, error) {
	rows := make([]CapacityRow, 0, len(factors))
	for _, f := range factors {
		b := battery.B1().Scale(f)
		horizon := 400 * f
		l, err := load.Paper("ILs alt", horizon)
		if err != nil {
			return nil, err
		}
		params := []battery.Params{b, b}
		res, err := sched.ContinuousRun(params, l, sched.BestAvailable())
		if err != nil {
			return nil, fmt.Errorf("factor %v: %w", f, err)
		}
		rows = append(rows, CapacityRow{
			Factor:            f,
			Lifetime:          res.LifetimeMinutes,
			RemainingFraction: res.RemainingFraction(params),
		})
	}
	return rows, nil
}
