// Dualbattery: the paper's headline experiment on one load. Two B1
// batteries serve the alternating intermittent load ILs alt; the four
// scheduling schemes of Section 6 are compared, including the optimal
// schedule computed both by direct search and by the priced-timed-automata
// model checker. The example then prints where the optimal schedule
// deviates from best-of-two.
//
// Run with: go run ./examples/dualbattery
package main

import (
	"fmt"
	"log"

	"batsched"
)

func main() {
	ld, err := batsched.PaperLoad("ILs alt", 120)
	if err != nil {
		log.Fatal(err)
	}
	bank := batsched.Bank(batsched.B1(), 2)
	problem, err := batsched.NewProblem(bank, ld)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("two B1 batteries under %s\n\n", ld.Name())
	var roundRobin float64
	for _, policy := range []batsched.Policy{
		batsched.Sequential(),
		batsched.RoundRobin(),
		batsched.BestAvailable(),
	} {
		lifetime, err := problem.PolicyLifetime(policy)
		if err != nil {
			log.Fatal(err)
		}
		if policy.Name() == "round robin" {
			roundRobin = lifetime
		}
		fmt.Printf("  %-12s %6.2f min\n", policy.Name(), lifetime)
	}

	opt, err := problem.Optimal(batsched.OptimalOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  %-12s %6.2f min (+%.1f%% over round robin)\n",
		"optimal", opt.Lifetime, 100*(opt.Lifetime-roundRobin)/roundRobin)

	// The paper's route: minimum-cost reachability on the TA-KiBaM network.
	sol, err := problem.OptimalLifetimeTA(batsched.SearchOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  %-12s %6.2f min (TA-KiBaM + model checker, %d charge units left)\n\n",
		"optimal(TA)", sol.LifetimeMinutes, sol.Cost)

	fmt.Println("optimal schedule (battery per job):")
	for _, c := range opt.Schedule {
		fmt.Printf("  %6.2f min  %-15s -> battery %d\n", c.Minutes, c.Reason, c.Battery+1)
	}
	fmt.Println("\nnote the irregular pattern — the paper observes the optimal")
	fmt.Println("schedule follows no simple rule (end of Section 6).")
}
