package sched

import (
	"testing"

	"batsched/internal/battery"
	"batsched/internal/dkibam"
	"batsched/internal/load"
	"batsched/internal/lp"
)

// lpWalkCells are the banks x loads on which the LP bound is exercised
// state by state (round-robin walks visit healthy, drained and near-death
// states alike).
func lpWalkCells(t *testing.T) []struct {
	name string
	ds   []*dkibam.Discretization
	cl   load.Compiled
} {
	t.Helper()
	b1, b2 := battery.B1(), battery.B2()
	hiC := battery.Params{Capacity: 1.2, C: 0.8, KPrime: 0.2, Label: "HiC"}
	type cell = struct {
		name string
		ds   []*dkibam.Discretization
		cl   load.Compiled
	}
	var cells []cell
	add := func(name string, bats []battery.Params, loadName string, horizon, grid float64) {
		ds, cl := diffGrid(t, bats, loadName, horizon, grid, grid)
		cells = append(cells, cell{name, ds, cl})
	}
	add("1xB1/CL 250", []battery.Params{b1}, "CL 250", 200, 0.01)
	add("2xB1/CL 500", []battery.Params{b1, b1}, "CL 500", 200, 0.01)
	add("2xB1/ILs alt", []battery.Params{b1, b1}, "ILs alt", 200, 0.01)
	add("2xB1/ILs r1", []battery.Params{b1, b1}, "ILs r1", 200, 0.01)
	add("3xHiC/ILs alt", battery.Bank(hiC, 3), "ILs alt", 200, 0.01)
	add("mixed/ILs alt", []battery.Params{b1, b2}, "ILs alt", 400, 0.05)
	return cells
}

// TestLPBoundAdmissibleOnWalk drives each cell's system along a round-robin
// schedule and, at every decision state on the way down, holds the LP bound
// to the exactly solved remaining optimum: bound >= optimum, everywhere from
// the full bank to the brink of death.
func TestLPBoundAdmissibleOnWalk(t *testing.T) {
	for _, c := range lpWalkCells(t) {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			sys, err := dkibam.NewSystem(c.ds, c.cl)
			if err != nil {
				t.Fatal(err)
			}
			scratch, err := dkibam.NewSystem(c.ds, c.cl)
			if err != nil {
				t.Fatal(err)
			}
			// Canonicalized but unpruned: solve returns the exact remaining
			// optimum from any state, and the shared memo keeps the repeated
			// probes cheap.
			o, err := newOptimizer(c.ds, c.cl, searchOpts{canonicalize: true})
			if err != nil {
				t.Fatal(err)
			}
			lpb := newLPBounder(c.ds, c.cl)
			rr := 0
			for states := 0; ; states++ {
				dec, pending, err := sys.AdvanceToDecision()
				if err != nil {
					t.Fatal(err)
				}
				if !pending {
					break
				}
				st := sys.SaveState(nil)
				bound := lpb.bound(sys)
				scratch.RestoreState(st)
				exact, err := o.solve(scratch)
				if err != nil {
					t.Fatal(err)
				}
				if int(bound) < exact {
					t.Fatalf("state %d (t=%d): LP bound %d < exact optimum %d",
						states, sys.Step(), bound, exact)
				}
				idx := dec.Alive[rr%len(dec.Alive)]
				rr++
				sys.RestoreState(st)
				if err := sys.Choose(idx); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestLPBoundAdmissibleAtRoot is the PR 3 differential sweep for the LP
// bound: on every light differential cell (all ten paper loads on the 1xB1,
// 2xB1, 1xB2 banks), the root LP bound must dominate the true optimum.
func TestLPBoundAdmissibleAtRoot(t *testing.T) {
	b1, b2 := battery.B1(), battery.B2()
	type cell struct {
		bank    string
		bats    []battery.Params
		horizon float64
		grid    float64
	}
	cells := []cell{
		{"1xB1", []battery.Params{b1}, 200, 0.01},
		{"2xB1", []battery.Params{b1, b1}, 200, 0.01},
		{"1xB2", []battery.Params{b2}, 600, 0.05},
	}
	for _, c := range cells {
		for _, name := range load.PaperLoadNames {
			c, name := c, name
			t.Run(c.bank+"/"+name, func(t *testing.T) {
				t.Parallel()
				ds, cl := diffGrid(t, c.bats, name, c.horizon, c.grid, c.grid)
				res, err := Solve(ds, cl, Options{})
				if err != nil {
					t.Fatal(err)
				}
				death := int(res.Lifetime/cl.StepMin + 0.5)
				sys, err := dkibam.NewSystem(ds, cl)
				if err != nil {
					t.Fatal(err)
				}
				if _, pending, err := sys.AdvanceToDecision(); err != nil || !pending {
					t.Fatalf("no root decision (pending=%v, err=%v)", pending, err)
				}
				if b := newLPBounder(ds, cl).bound(sys); int(b) < death {
					t.Fatalf("root LP bound %d < optimum death step %d", b, death)
				}
			})
		}
	}
}

// TestLPBoundMatchesSimplexReference states the scan in lpBounder.bound
// against internal/lp: for sampled decision states and epoch boundaries Y,
// the prefix-check verdict ("the relaxation survives through Y") must equal
// the feasibility of the explicitly built relaxation LP solved by the
// simplex. This pins the Hall-style argument that reduces the LP to prefix
// sums, on states the search actually visits. Loads here have uniform
// per-event draw, where the scan's running slack maximum provably matches
// the windowed LP slack.
func TestLPBoundMatchesSimplexReference(t *testing.T) {
	for _, c := range lpWalkCells(t) {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			sys, err := dkibam.NewSystem(c.ds, c.cl)
			if err != nil {
				t.Fatal(err)
			}
			lpb := newLPBounder(c.ds, c.cl)
			rr, checked := 0, 0
			for checked < 8 {
				dec, pending, err := sys.AdvanceToDecision()
				if err != nil {
					t.Fatal(err)
				}
				if !pending {
					break
				}
				st := sys.SaveState(nil)
				// Sample every third decision state to cover the lifetime.
				if rr%3 == 0 {
					checkSimplexAgreement(t, c.ds, c.cl, lpb, sys)
					checked++
				}
				idx := dec.Alive[rr%len(dec.Alive)]
				rr++
				sys.RestoreState(st)
				if err := sys.Choose(idx); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// checkSimplexAgreement compares, for one decision state, the scan verdict
// at each of the next boundaries with the simplex feasibility of the
// explicit relaxation LP.
func checkSimplexAgreement(t *testing.T, ds []*dkibam.Discretization, cl load.Compiled, lpb *lpBounder, sys *dkibam.System) {
	t.Helper()
	t0, e0 := sys.Step(), sys.Epoch()
	bound := lpb.bound(sys)

	type bat struct {
		n, avail, m, rest int64
		recov             []int
	}
	var alive []bat
	for i, d := range ds {
		c := sys.Cell(i)
		if c.Empty {
			continue
		}
		alive = append(alive, bat{
			n:     int64(c.N),
			avail: int64(d.CMille*c.N - (1000-d.CMille)*c.M),
			m:     int64(c.M),
			rest:  int64(1000 - d.CMille),
			recov: d.RecovTime,
		})
	}
	lastY := e0 + 30
	if lastY > len(cl.LoadTime)-1 {
		lastY = len(cl.LoadTime) - 1
	}
	for Y := e0; Y <= lastY; Y++ {
		scanOK := bound == maxBound || int(bound) >= cl.LoadTime[Y]
		// Build the relaxation LP over epochs [e0, Y]: per-battery x[a][yy],
		// per-epoch slack sigma[yy].
		ne := Y - e0 + 1
		na := len(alive)
		nv := na*ne + ne
		xv := func(a, yy int) int { return a*ne + (yy - e0) }
		sv := func(yy int) int { return na*ne + (yy - e0) }
		var rows [][]float64
		var rhs []float64
		maxCur := int64(0)
		for yy := e0; yy <= Y; yy++ {
			cur := int64(cl.Cur[yy])
			var evts int64
			if cur > 0 {
				start := t0
				if yy != e0 {
					start = cl.LoadTime[yy-1]
				}
				evts = int64((cl.LoadTime[yy] - start) / cl.CurTimes[yy])
				if cur > maxCur {
					maxCur = cur
				}
			}
			// Coverage: sum_a x[a][yy] + sigma[yy] >= U[yy].
			row := make([]float64, nv)
			for a := 0; a < na; a++ {
				row[xv(a, yy)] = -1
			}
			row[sv(yy)] = -1
			rows = append(rows, row)
			rhs = append(rhs, -float64(evts*cur))
			// Release caps: sum_{y' <= yy} x[a][y'] <= cap_a(t_yy - t0).
			w := int64(cl.LoadTime[yy] - t0)
			for a, b := range alive {
				u := deliveryCap(b.n, b.avail, b.m, b.rest, b.recov, w, maxCur)
				if u > b.n {
					u = b.n
				}
				row := make([]float64, nv)
				for y2 := e0; y2 <= yy; y2++ {
					row[xv(a, y2)] = 1
				}
				rows = append(rows, row)
				rhs = append(rhs, float64(u))
			}
		}
		// Slack budget: sum sigma <= (alive-1) * maxCur.
		row := make([]float64, nv)
		for yy := e0; yy <= Y; yy++ {
			row[sv(yy)] = 1
		}
		rows = append(rows, row)
		rhs = append(rhs, float64(int64(na-1)*maxCur))

		sol, err := lp.Solve(lp.Problem{C: make([]float64, nv), A: rows, B: rhs})
		if err != nil {
			t.Fatalf("t=%d Y=%d: %v", t0, Y, err)
		}
		simplexOK := sol.Status == lp.Optimal
		if scanOK != simplexOK {
			t.Fatalf("t=%d Y=%d (boundary %d): scan says %v (bound %d), simplex says %v",
				t0, Y, cl.LoadTime[Y], scanOK, bound, simplexOK)
		}
		if !scanOK {
			break // later boundaries only add constraints
		}
	}
}
