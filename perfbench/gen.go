package main

import (
	"encoding/json"
	"fmt"

	"batsched/internal/spec"
)

// Every input the benchmark sends is a pure function of (seed, index): the
// same seed yields the same request bytes in any run and in any order of
// generation, so a closed-loop client can build request i on demand and a
// recomputation after timing can rebuild exactly what was sent.

// rng is a splitmix64 stream: tiny, allocation-free, and stable across Go
// releases (math/rand's streams are not part of any compatibility promise).
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// stream derives an independent generator from a seed and a key path such
// as (kind, request, slot).
func stream(seed int64, keys ...uint64) *rng {
	r := &rng{s: uint64(seed)}
	for _, k := range keys {
		r.s ^= k
		r.s = r.next()
	}
	return r
}

// Stream kinds keep the generators of different inputs independent.
const (
	kindGrid uint64 = iota + 1
	kindOptimal
	kindDevice
	kindEvent
	kindSample
)

// The load families of the paper's Section 5: continuous (CL), intermittent
// with short and long idle gaps (ILs, ILl), alternating currents, and random
// job currents. The benchmark draws their parameters from the seed, so the
// shapes are the paper's but every load is new.
var families = []string{"CL", "ILs", "ILl", "alt", "random"}

// shape bounds the parameters of a seeded load: job durations are drawn
// per job from durations; currents are k/perAmp A for k from minLevel to
// minLevel+levels-1, at most 700 mA (the most the paper's Itsy pocket
// computer draws).
type shape struct {
	durations        []float64
	perAmp           int
	minLevel, levels int
}

// current divides rather than multiplies, so 3/10 is the double nearest
// 0.3 and encodes as 0.3.
func (sh shape) current(r *rng) float64 {
	return float64(sh.minLevel+r.intn(sh.levels)) / float64(sh.perAmp)
}

func (sh shape) job(r *rng) float64 { return sh.durations[r.intn(len(sh.durations))] }

var (
	// policyShape serves grid-cold:
	// 0.2-0.7 A jobs of 1 or 2 min. On every grid the workloads use, a
	// current of k/10 A draws whole charge units within every such job;
	// other currents would under-draw on the coarse grids (a 0.35 A job
	// draws 7 units every 20 steps, and 20 steps of T = 0.1 are 2 min), so
	// a bank could outlive its load there.
	policyShape = shape{durations: []float64{1, 2}, perAmp: 10, minLevel: 2, levels: 6}
	// optimalShape serves optimal-cells, on the paper grid only. With 3-4
	// min jobs of 0.3-0.7 A three-battery lifetimes take about a dozen
	// decisions. The optimal search is exponential in the decision count:
	// with the paper's one-minute jobs a single cell on these banks can
	// take minutes.
	optimalShape = shape{durations: []float64{3, 4}, perAmp: 20, minLevel: 6, levels: 9}
)

// seededLoad draws one load of the given family. Segments are appended
// until the load demands minCharge A·min, which exceeds the capacity of
// every bank it is paired with: no bank can outlive its load, so no cell
// fails with an exhausted load.
func seededLoad(r *rng, family int, name string, minCharge float64, sh shape) spec.Load {
	var segs []spec.Segment
	charge := 0.0
	add := func(d, cur float64) {
		segs = append(segs, spec.Segment{DurationMin: d, CurrentA: cur})
		charge += d * cur
	}
	switch families[family] {
	case "CL":
		cur := sh.current(r)
		for charge < minCharge {
			add(sh.job(r), cur)
		}
	case "ILs", "ILl":
		cur := sh.current(r)
		idles := []float64{0.5, 1, 1.5}
		if families[family] == "ILl" {
			idles = []float64{2, 2.5, 3}
		}
		for charge < minCharge {
			add(sh.job(r), cur)
			add(idles[r.intn(len(idles))], 0)
		}
	case "alt":
		hi, lo := sh.current(r), sh.current(r)
		if hi < lo {
			hi, lo = lo, hi
		}
		idle := []float64{0, 1}[r.intn(2)]
		for k := 0; charge < minCharge; k++ {
			cur := hi
			if k%2 == 1 {
				cur = lo
			}
			add(sh.job(r), cur)
			if idle > 0 {
				add(idle, 0)
			}
		}
	case "random":
		lo, hi := sh.current(r), sh.current(r)
		for charge < minCharge {
			cur := lo
			if r.intn(2) == 1 {
				cur = hi
			}
			add(sh.job(r), cur)
			add(1, 0)
		}
	}
	return spec.Load{Name: name, Segments: segs}
}

// gridBanks and gridSteps give the 200-cell grid shape of the repository's
// jobs benchmark scenario: 2 banks × 10 loads × 2 solvers × 5 grids. The
// grid sizes divide the battery capacities (5.5 and 11 A·min).
var (
	gridBanks = []spec.Bank{
		{Battery: &spec.Battery{Preset: "B1"}, Count: 2},
		{Battery: &spec.Battery{Preset: "B2"}, Count: 1},
	}
	gridSteps   = []float64{0.01, 0.02, 0.025, 0.05, 0.1}
	gridSolvers = []spec.Solver{{Name: "sequential"}, {Name: "bestof"}}
)

const (
	gridLoads = 10
	// gridCells is the cell count of every grid request.
	gridCells = 2 * gridLoads * 2 * 5
	// gridMinCharge exceeds the 11 A·min of both grid banks.
	gridMinCharge = 14
)

// gridLoad is load slot j of grid i of the given kind. Slots cycle through
// the five families, so every grid carries two loads of each.
func gridLoad(seed int64, kind uint64, i, j int) spec.Load {
	r := stream(seed, kind, uint64(i), uint64(j))
	fam := j % len(families)
	name := fmt.Sprintf("%s s%d-%d-%d-%d", families[fam], seed, kind, i, j)
	return seededLoad(r, fam, name, gridMinCharge, policyShape)
}

func gridScenario(loads []spec.Load) spec.Scenario {
	grids := make([]spec.Grid, len(gridSteps))
	for i, g := range gridSteps {
		grids[i] = spec.Grid{StepMin: g, UnitAmpMin: g}
	}
	return spec.Scenario{Banks: gridBanks, Loads: loads, Solvers: gridSolvers, Grids: grids}
}

// coldGrid is request i of grid-cold: ten loads no earlier request used.
func coldGrid(seed int64, i int) spec.Scenario {
	loads := make([]spec.Load, gridLoads)
	for j := range loads {
		loads[j] = gridLoad(seed, kindGrid, i, j)
	}
	return gridScenario(loads)
}

// optimalBanks are the two banks of optimal-cells: three identical
// batteries, and a mixed bank the search cannot fully canonicalize.
var optimalBanks = []spec.Bank{
	{Battery: &spec.Battery{Preset: "B1"}, Count: 3},
	{Name: "2xB1+B2", Batteries: []spec.Battery{{Preset: "B1"}, {Preset: "B1"}, {Preset: "B2"}}},
}

// optimalMinCharge exceeds the 22 A·min of the larger optimal bank.
const optimalMinCharge = 26

// optimalRun is cell i of optimal-cells: one bank, one seeded load, the
// optimal solver on the paper grid.
func optimalRun(seed int64, i int) spec.Run {
	r := stream(seed, kindOptimal, uint64(i))
	fam := (i / len(optimalBanks)) % len(families)
	name := fmt.Sprintf("%s s%d-%d", families[fam], seed, i)
	return spec.Run{
		Bank:   optimalBanks[i%len(optimalBanks)],
		Load:   seededLoad(r, fam, name, optimalMinCharge, optimalShape),
		Solver: spec.Solver{Name: "optimal"},
	}
}

// Session devices, the inputs of the ladder's session rung: each device
// runs one online policy on one bank and feeds it a seeded stream of draw
// events; after its bank dies it opens a fresh session (the next
// generation) and continues.
var (
	devicePolicies = []string{"greedy-soc", "efq", "sequential", "roundrobin"}
	deviceBanks    = []spec.Bank{
		{Battery: &spec.Battery{Preset: "B2"}, Count: 3},
		{Battery: &spec.Battery{Preset: "B1"}, Count: 4},
		{Name: "B1+2xB2", Batteries: []spec.Battery{{Preset: "B1"}, {Preset: "B2"}, {Preset: "B2"}}},
	}
	// eventShape draws 6-12 s events: a bank then lives for hundreds of
	// steps, so a device's life is mostly steps, not its open and close.
	eventShape = shape{durations: []float64{0.1, 0.2}, perAmp: 10, minLevel: 2, levels: 6}
)

// deviceSession is the session spec of device d.
func deviceSession(d int) spec.Session {
	return spec.Session{
		Bank:   deviceBanks[d%len(deviceBanks)],
		Policy: spec.Solver{Name: devicePolicies[d%len(devicePolicies)]},
	}
}

// event is one draw event in the step endpoint's wire form.
type event struct {
	CurrentA    float64 `json:"current_a"`
	DurationMin float64 `json:"duration_min"`
}

// deviceEvent is event k of generation g of device d: an idle period one
// time in four, otherwise a job at a seeded current.
func deviceEvent(seed int64, d, g, k int) event {
	r := stream(seed, kindEvent, uint64(d), uint64(g), uint64(k))
	ev := event{DurationMin: eventShape.job(r)}
	if r.intn(4) != 0 {
		ev.CurrentA = eventShape.current(r)
	}
	return ev
}

// sampled reports whether request i is in the seeded sample that is
// recomputed in-process after timing (one request in every on average);
// the second value picks the cell within it.
func sampled(seed int64, i, every, cells int) (bool, int) {
	r := stream(seed, kindSample, uint64(i))
	if r.intn(every) != 0 {
		return false, 0
	}
	return true, r.intn(cells)
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // unreachable: every input type marshals
	}
	return b
}
