// Command batopt computes the optimal battery schedule for one of the
// paper's test loads, using both routes of the reproduction: the direct
// branch-and-bound search over scheduling decisions and, unless -direct is
// given, the paper's method — minimum-cost reachability on the TA-KiBaM
// network of priced timed automata.
//
// Usage:
//
//	batopt [-battery B1|B2] [-n COUNT] [-load NAME] [-horizon MIN]
//	       [-spec run.json] [-direct] [-budget N] [-workers N] [-stats]
//	       [-export FILE.xml] [-v]
//
// With -spec, the bank/load/grid come from a serializable run file (the
// same JSON the batserve /v1/run endpoint accepts; its solver field is
// ignored) instead of the individual flags. With -export, the TA-KiBaM
// network is additionally written as an Uppaal 4.x XML model for
// cross-checking against the original toolchain.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"

	"batsched"
)

func main() {
	batteryName := flag.String("battery", "B1", "battery preset: B1 or B2")
	count := flag.Int("n", 2, "number of identical batteries")
	loadName := flag.String("load", "ILs alt", "paper load name")
	horizon := flag.Float64("horizon", batsched.DefaultHorizonMin, "load horizon in minutes")
	specPath := flag.String("spec", "", "read the bank/load/grid from a serializable run file (JSON)")
	direct := flag.Bool("direct", false, "skip the timed-automata checker, use only the direct search")
	budget := flag.Int("budget", 0, "state budget for the timed-automata checker (0 = default)")
	workers := flag.Int("workers", 1, "direct-search workers: 1 = serial, 0 = all CPUs, N = work-stealing pool of N")
	stats := flag.Bool("stats", false, "print the direct search's work counters (states, pruned, lp_pruned, steals, ...)")
	export := flag.String("export", "", "write the TA-KiBaM as an Uppaal XML model to this file")
	verbose := flag.Bool("v", false, "print the full optimal schedule")
	flag.Parse()

	problem, label, err := buildProblem(*specPath, *batteryName, *count, *loadName, *horizon)
	if err != nil {
		fmt.Fprintf(os.Stderr, "batopt: %v\n", err)
		os.Exit(1)
	}
	if err := run(problem, label, *direct, *budget, *workers, *stats, *verbose); err != nil {
		fmt.Fprintf(os.Stderr, "batopt: %v\n", err)
		os.Exit(1)
	}
	if *export != "" {
		if err := exportModel(problem, *export); err != nil {
			fmt.Fprintf(os.Stderr, "batopt: export: %v\n", err)
			os.Exit(1)
		}
	}
}

// buildProblem resolves either the -spec run file or the individual flags
// into a Problem and a display label.
func buildProblem(specPath, batteryName string, count int, loadName string, horizon float64) (*batsched.Problem, string, error) {
	if specPath == "" {
		b, err := batsched.CLIBattery(batteryName, 0)
		if err != nil {
			return nil, "", err
		}
		l, err := batsched.CLILoad(loadName, horizon)
		if err != nil {
			return nil, "", err
		}
		p, err := batsched.NewProblem(batsched.Bank(b, count), l)
		if err != nil {
			return nil, "", err
		}
		return p, fmt.Sprintf("%d x %s on %s", count, b, loadName), nil
	}

	data, err := os.ReadFile(specPath)
	if err != nil {
		return nil, "", err
	}
	run, err := batsched.ParseRun(data)
	if err != nil {
		return nil, "", fmt.Errorf("%s: %w", specPath, err)
	}
	bankName, bank, err := run.Bank.Resolve()
	if err != nil {
		return nil, "", fmt.Errorf("%s: %w", specPath, err)
	}
	ldName, ld, err := run.Load.Resolve()
	if err != nil {
		return nil, "", fmt.Errorf("%s: %w", specPath, err)
	}
	opts := []batsched.Option{}
	if run.Grid != nil {
		g := run.Grid.Resolve()
		opts = append(opts, batsched.WithGrid(g.StepMin, g.UnitAmpMin))
	}
	p, err := batsched.NewProblem(bank, ld, opts...)
	if err != nil {
		return nil, "", err
	}
	return p, fmt.Sprintf("%s on %s", bankName, ldName), nil
}

func exportModel(p *batsched.Problem, path string) error {
	c, err := p.Compile()
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := c.ExportUppaal(f); err != nil {
		return err
	}
	fmt.Printf("Uppaal model written to %s\n", path)
	return nil
}

func run(p *batsched.Problem, label string, direct bool, budget, workers int, showStats, verbose bool) error {
	c, err := p.Compile()
	if err != nil {
		return err
	}
	poolSize := workers
	if poolSize <= 0 {
		poolSize = runtime.NumCPU()
	}
	res, err := c.Optimal(batsched.OptimalOptions{Workers: poolSize})
	if err != nil {
		return err
	}
	lifetime, schedule, stats := res.Lifetime, res.Schedule, res.Stats
	fmt.Println(label)
	fmt.Printf("optimal lifetime (direct search):  %.2f min (%d decisions)\n", lifetime, len(schedule))
	if showStats {
		fmt.Printf("  search: %d states, %d leaves, %d memo hits, %d pruned\n",
			stats.States, stats.Leaves, stats.MemoHits, stats.Pruned)
		fmt.Printf("  bounds: %d lp evaluations, %d lp-pruned\n", stats.LPBounds, stats.LPPruned)
		if workers != 1 {
			fmt.Printf("  parallel: %d steals, %d shared-memo hits\n", stats.Steals, stats.SharedMemoHits)
		}
	}
	if verbose {
		for _, c := range schedule {
			fmt.Printf("  %7.2f min  %-15s -> battery %d\n", c.Minutes, c.Reason, c.Battery+1)
		}
	}
	if direct {
		return nil
	}

	sol, err := p.OptimalLifetimeTA(batsched.SearchOptions{MaxStates: budget})
	if err != nil {
		return err
	}
	fmt.Printf("optimal lifetime (TA-KiBaM + model checker): %.2f min\n", sol.LifetimeMinutes)
	fmt.Printf("  min cost %d charge units left (%.2f A·min); %d branch states, %d states touched\n",
		sol.Cost, float64(sol.Cost)*batsched.PaperUnitAmpMin, sol.BranchStates, sol.TouchedStates)
	if verbose {
		for _, a := range sol.Schedule {
			fmt.Printf("  %7.2f min  go_on -> battery %d\n", a.Minutes, a.Battery+1)
		}
	}
	if sol.LifetimeMinutes != lifetime {
		fmt.Printf("WARNING: the two routes disagree (%.2f vs %.2f)\n", lifetime, sol.LifetimeMinutes)
	}
	return nil
}
