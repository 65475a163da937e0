package sched

import (
	"fmt"
	"runtime"
	"testing"

	"batsched/internal/battery"
	"batsched/internal/dkibam"
	"batsched/internal/load"
)

// diffBank is one bank of the differential suite.
type diffBank struct {
	name    string
	ds      []*dkibam.Discretization
	horizon float64
	// optimalLoads restricts which loads run the optimal-search differential
	// (nil = all ten). The 2xB2 searches explore millions of states per load
	// — minutes of CPU each on the heavy loads — so that bank checks Solve
	// on its three cheap loads only; the deterministic policies still cover
	// all ten loads on every bank.
	optimalLoads map[string]bool
}

// diffBanks enumerates the banks of the differential suite: B1/B2 single
// batteries and two-battery banks.
func diffBanks(t *testing.T) []diffBank {
	t.Helper()
	d1, err := dkibam.Discretize(battery.B1(), dkibam.PaperStepMin, dkibam.PaperUnitAmpMin)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := dkibam.Discretize(battery.B2(), dkibam.PaperStepMin, dkibam.PaperUnitAmpMin)
	if err != nil {
		t.Fatal(err)
	}
	cheap := map[string]bool{"CL 500": true, "CL alt": true, "ILs 500": true}
	return []diffBank{
		{name: "1xB1", ds: []*dkibam.Discretization{d1}, horizon: 200},
		{name: "1xB2", ds: []*dkibam.Discretization{d2}, horizon: 600},
		{name: "2xB1", ds: []*dkibam.Discretization{d1, d1}, horizon: 200},
		{name: "2xB2", ds: []*dkibam.Discretization{d2, d2}, horizon: 600, optimalLoads: cheap},
	}
}

// engineRun drives one engine under a policy, recording the full decision
// trajectory (time, epoch, chosen battery, and complete cell state at every
// decision) plus the death step.
type engineTrace struct {
	decisions []string
	death     int
}

func runEngineTrace(t *testing.T, ds []*dkibam.Discretization, cl load.Compiled, e dkibam.Engine, p Policy) engineTrace {
	t.Helper()
	sys, err := dkibam.NewSystem(ds, cl)
	if err != nil {
		t.Fatal(err)
	}
	sys.SetEngine(e)
	var tr engineTrace
	chooser := AdaptChooser(p.NewChooser())
	_, err = sys.Run(func(s *dkibam.System, dec dkibam.Decision) int {
		idx := chooser(s, dec)
		snap := fmt.Sprintf("t=%d j=%d reason=%v pick=%d", dec.Step, dec.Epoch, dec.Reason, idx)
		for i := 0; i < s.Batteries(); i++ {
			c := s.Cell(i)
			snap += fmt.Sprintf(" | n=%d m=%d cr=%d e=%v", c.N, c.M, c.CRecov, c.Empty)
		}
		tr.decisions = append(tr.decisions, snap)
		return idx
	})
	if err != nil {
		t.Fatalf("engine %v: %v", e, err)
	}
	tr.death = sys.DeathStep()
	return tr
}

// TestEngineDifferential holds the event-driven engine to the tick oracle to
// the exact step on all ten paper loads, for B1/B2 single batteries and
// two-battery banks, under Sequential, RoundRobin, BestAvailable, and
// Solve. For the deterministic policies the full decision trajectory
// (time, epoch, choice, and every battery's discrete state at every
// decision) must match; for Solve the returned schedule must replay to the
// same death step on both engines.
func TestEngineDifferential(t *testing.T) {
	banks := diffBanks(t)
	policies := []Policy{Sequential(), RoundRobin(), BestAvailable()}
	for _, name := range load.PaperLoadNames {
		for _, bank := range banks {
			cl := compiled(t, name, bank.horizon)
			t.Run(name+"/"+bank.name, func(t *testing.T) {
				for _, p := range policies {
					tick := runEngineTrace(t, bank.ds, cl, dkibam.EngineTick, p)
					event := runEngineTrace(t, bank.ds, cl, dkibam.EngineEvent, p)
					if tick.death != event.death {
						t.Errorf("%s: death step tick=%d event=%d", p.Name(), tick.death, event.death)
					}
					if len(tick.decisions) != len(event.decisions) {
						t.Fatalf("%s: %d decisions on tick, %d on event", p.Name(), len(tick.decisions), len(event.decisions))
					}
					for i := range tick.decisions {
						if tick.decisions[i] != event.decisions[i] {
							t.Fatalf("%s: decision %d diverges:\n tick:  %s\n event: %s",
								p.Name(), i, tick.decisions[i], event.decisions[i])
						}
					}
				}

				if bank.optimalLoads != nil && !bank.optimalLoads[name] {
					return
				}
				opt, schedule, err := optimal(bank.ds, cl)
				if err != nil {
					t.Fatalf("optimal: %v", err)
				}
				replay := Replay("opt", schedule)
				tick := runEngineTrace(t, bank.ds, cl, dkibam.EngineTick, replay)
				event := runEngineTrace(t, bank.ds, cl, dkibam.EngineEvent, replay)
				if tick.death != event.death {
					t.Errorf("optimal: death step tick=%d event=%d", tick.death, event.death)
				}
				if got := float64(event.death) * cl.StepMin; got != opt {
					t.Errorf("optimal: search says %v min, schedule replays to %v min", opt, got)
				}
			})
		}
	}
}

// TestOptimalParallelMatchesSerial: the worker-pool search must report
// exactly the serial optimal lifetime, and its schedule must replay to it.
func TestOptimalParallelMatchesSerial(t *testing.T) {
	ds := b1Pair(t)
	for _, name := range []string{"CL alt", "ILs alt", "ILs r1", "ILl 500"} {
		cl := compiled(t, name, 200)
		serial, _, err := optimal(ds, cl)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, workers := range []int{2, runtime.NumCPU()} {
			res, err := Solve(ds, cl, Options{Workers: workers})
			if err != nil {
				t.Fatalf("%s (%d workers): %v", name, workers, err)
			}
			par, schedule := res.Lifetime, res.Schedule
			if par != serial {
				t.Errorf("%s (%d workers): parallel %v, serial %v", name, workers, par, serial)
			}
			replayed, _, err := Run(ds, cl, Replay("opt-par", schedule))
			if err != nil {
				t.Fatalf("%s (%d workers) replay: %v", name, workers, err)
			}
			if replayed != par {
				t.Errorf("%s (%d workers): schedule replays to %v, search says %v", name, workers, replayed, par)
			}
		}
	}
}
