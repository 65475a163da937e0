package sched

import (
	"fmt"
	"math"

	"batsched/internal/dkibam"
)

// replayPolicy replays a recorded schedule decision by decision.
type replayPolicy struct {
	name     string
	schedule Schedule
}

// Replay returns a policy that re-applies a recorded schedule, validating
// that each decision arrives at the recorded time. Use it to re-simulate an
// optimal schedule (from Solve or from the timed-automata route) while
// sampling charge traces.
func Replay(name string, schedule Schedule) Policy {
	return &replayPolicy{name: name, schedule: schedule}
}

// Name implements Policy.
func (p *replayPolicy) Name() string { return p.name }

// NewChooser implements Policy.
func (p *replayPolicy) NewChooser() Chooser {
	next := 0
	return func(_ Bank, dec Decision) int {
		if next >= len(p.schedule) {
			panic(fmt.Sprintf("sched: replay exhausted after %d decisions (decision at %.4f min)", len(p.schedule), dec.Minutes))
		}
		choice := p.schedule[next]
		if math.Abs(choice.Minutes-dec.Minutes) > 1e-9 {
			panic(fmt.Sprintf("sched: replay desync: recorded %.4f min, live %.4f min", choice.Minutes, dec.Minutes))
		}
		next++
		return choice.Battery
	}
}

// FixedChooser returns a discrete-engine chooser that always picks the
// given battery; it is the single-battery "scheduler".
func FixedChooser(idx int) dkibam.Chooser {
	return func(*dkibam.System, dkibam.Decision) int { return idx }
}
