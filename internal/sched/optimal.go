package sched

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"

	"batsched/internal/battery"
	"batsched/internal/dkibam"
	"batsched/internal/load"
)

// MaxOptimalBatteries bounds the bank size of the optimal search. The memo
// key is a fixed-size comparable struct so that the map hashes it without
// allocating; sixteen batteries is reachable for homogeneous and
// few-type banks thanks to symmetry canonicalization (which collapses the
// n! permutations of identical batteries into one state) combined with the
// LP-relaxation bound (which prunes the availability-starved subtrees the
// cheap charge bound cannot see).
const MaxOptimalBatteries = 16

// MaxDistinctOptimalBatteries bounds the number of non-interchangeable
// battery types past the legacy 8-battery cap: symmetry canonicalization is
// what makes larger banks tractable, and it collapses nothing between
// distinct types, so a 9..16-battery bank must not be all-distinct.
const MaxDistinctOptimalBatteries = 8

// ErrTooManyBatteries is returned when the bank exceeds MaxOptimalBatteries.
var ErrTooManyBatteries = errors.New("sched: optimal search bank exceeds MaxOptimalBatteries")

// ErrBankTooDiverse is returned for banks past MaxDistinctOptimalBatteries
// batteries whose battery types are (almost) all distinct — without
// interchangeable batteries the exhaustive search has no symmetry to exploit
// and would run effectively forever.
var ErrBankTooDiverse = errors.New("sched: optimal search past 8 batteries needs interchangeable batteries")

// SearchStats counts the work an optimal search performed; the sweep runner
// and the evaluation service surface them so speedups (and regressions) are
// observable from the API.
type SearchStats struct {
	// States is the number of decision states expanded.
	States int64 `json:"states"`
	// Leaves is the number of complete trajectories reached.
	Leaves int64 `json:"leaves"`
	// MemoHits counts children resolved from a memo entry this worker stored
	// itself (for the serial search: every memo resolution).
	MemoHits int64 `json:"memo_hits"`
	// Pruned counts children cut by the admissible charge bound (or by a
	// previously proven memo bound) before expansion.
	Pruned int64 `json:"pruned"`
	// LPBounds counts LP-relaxation bound evaluations. The LP bound is lazy:
	// it runs only on children the cheap charge bound failed to prune.
	LPBounds int64 `json:"lp_bounds"`
	// LPPruned counts children cut only thanks to the LP-relaxation bound
	// (the cheap bound alone would have descended).
	LPPruned int64 `json:"lp_pruned"`
	// Steals counts tasks taken from another worker's deque by the parallel
	// search's work stealing; zero for serial searches.
	Steals int64 `json:"steals"`
	// SharedMemoHits counts memo hits served by an entry another worker
	// stored — the cross-worker sharing the parallel search's shared table
	// buys; zero for serial searches. A lookup increments exactly one of
	// MemoHits and SharedMemoHits, in the stats of the one worker that
	// performed it, so the two never double-count.
	SharedMemoHits int64 `json:"shared_memo_hits"`
}

// Add accumulates o into s (used to merge per-worker counters).
func (s *SearchStats) Add(o SearchStats) {
	s.States += o.States
	s.Leaves += o.Leaves
	s.MemoHits += o.MemoHits
	s.Pruned += o.Pruned
	s.LPBounds += o.LPBounds
	s.LPPruned += o.LPPruned
	s.Steals += o.Steals
	s.SharedMemoHits += o.SharedMemoHits
}

// MaxWorkers bounds Options.Workers: the parallel search tags memo entries
// with a one-byte worker id.
const MaxWorkers = 256

// ErrTooManyWorkers is returned when Options.Workers exceeds MaxWorkers.
var ErrTooManyWorkers = errors.New("sched: optimal search workers exceed MaxWorkers")

// Options configure Solve.
type Options struct {
	// Workers > 1 spreads the search over a work-stealing pool of that many
	// workers (see solveParallel); Workers <= 1 runs the serial search. The
	// lifetime and schedule are the same either way. At most MaxWorkers.
	Workers int
	// Reference runs the unoptimised exhaustive search (memoised, but
	// neither canonicalized nor pruned): the oracle the differential tests
	// and the benchmark baseline compare the optimised search against.
	Reference bool
}

// Result is the outcome of Solve: the optimal lifetime in minutes, the
// canonical schedule attaining it, and the work the search performed,
// summed over all workers.
type Result struct {
	Lifetime float64
	Schedule Schedule
	Stats    SearchStats
}

// searchOpts select the optimal search's optimizations. The zero value is
// the reference exhaustive search; Solve runs allOpts. The mixes in between
// exist for the per-optimisation differential tests.
type searchOpts struct {
	// canonicalize sorts the states of identical batteries inside memo keys,
	// collapsing permutation-equivalent states (up to n! for a homogeneous
	// bank). Optimality is preserved because identical batteries are
	// interchangeable: relabelling them maps schedules to schedules of equal
	// lifetime (see DESIGN.md).
	canonicalize bool
	// prune enables branch-and-bound: children whose admissible
	// charge-vs-demand bound cannot beat the best lifetime found so far are
	// cut, and children are explored best-bound-first so the incumbent
	// tightens early.
	prune bool
	// lpBound layers a second, tighter admissible bound — the LP relaxation
	// of the remaining-schedule problem (see lpBounder) — behind the cheap
	// charge bound. It is evaluated lazily, only on children the cheap bound
	// failed to prune, and only at their first expansion (re-encounters carry
	// a memo bound that is at least as sharp). Requires prune.
	lpBound bool
}

// allOpts enables every optimization.
var allOpts = searchOpts{canonicalize: true, prune: true, lpBound: true}

// Solve computes the maximum achievable system lifetime and a schedule
// that attains it by branch-and-bound depth-first search over all scheduling
// decisions of the discretized battery system, with memoisation on
// canonicalized decision states. The search is iterative (an explicit frame
// stack) and allocation-lean: it branches by snapshotting and restoring cell
// state on a single reusable system instead of cloning, and memoises on a
// compact comparable struct key instead of a formatted string.
//
// This search is an independent cross-check of the priced-timed-automata
// route of the paper (internal/takibam + internal/mc): both must agree on
// the optimal lifetime, which the integration tests assert.
func Solve(ds []*dkibam.Discretization, cl load.Compiled, opts Options) (Result, error) {
	so := allOpts
	if opts.Reference {
		so = searchOpts{}
	}
	return solveWith(ds, cl, opts.Workers, so)
}

// solveWith is Solve with explicit optimizations. The returned lifetime and
// schedule are identical for every option set and worker count — the
// options only change how much of the state space must be visited to prove
// it — which the differential tests pin on the paper's loads and banks. The
// schedule is the canonical optimal schedule (see reconstruct). On error,
// Stats holds whatever the parallel workers counted; the serial search
// reports none.
func solveWith(ds []*dkibam.Discretization, cl load.Compiled, workers int, so searchOpts) (Result, error) {
	if workers > MaxWorkers {
		return Result{}, fmt.Errorf("%w (have %d, max %d)", ErrTooManyWorkers, workers, MaxWorkers)
	}
	if err := validateBank(ds); err != nil {
		return Result{}, err
	}
	var (
		o     *optimizer
		best  int32
		stats SearchStats
		err   error
	)
	if workers <= 1 {
		o, best, err = solveSerial(ds, cl, so)
	} else {
		o, best, stats, err = solveParallel(ds, cl, workers, so)
	}
	if err != nil {
		return Result{Stats: stats}, err
	}
	walk, err := dkibam.NewSystem(ds, cl)
	if err != nil {
		return Result{}, err
	}
	scratch, err := dkibam.NewSystem(ds, cl)
	if err != nil {
		return Result{}, err
	}
	schedule, err := o.reconstruct(walk, scratch, best)
	if err != nil {
		return Result{}, err
	}
	return Result{Lifetime: float64(best) * cl.StepMin, Schedule: schedule, Stats: o.stats}, nil
}

// solveSerial runs the search from the initial state on one optimizer and
// returns it (holding the filled memo table and the stats) and the best
// death step.
func solveSerial(ds []*dkibam.Discretization, cl load.Compiled, so searchOpts) (*optimizer, int32, error) {
	sys, err := dkibam.NewSystem(ds, cl)
	if err != nil {
		return nil, 0, err
	}
	o, err := newOptimizer(ds, cl, so)
	if err != nil {
		return nil, 0, err
	}
	best, err := o.solve(sys)
	if err != nil {
		return nil, 0, err
	}
	return o, int32(best), nil
}

// validateBank enforces the search's feasibility caps: at most
// MaxOptimalBatteries total, and past MaxDistinctOptimalBatteries the bank
// must contain interchangeable batteries for canonicalization to collapse.
func validateBank(ds []*dkibam.Discretization) error {
	if len(ds) > MaxOptimalBatteries {
		return fmt.Errorf("%w (have %d, max %d)", ErrTooManyBatteries, len(ds), MaxOptimalBatteries)
	}
	if len(ds) <= MaxDistinctOptimalBatteries {
		return nil
	}
	params := make([]battery.Params, len(ds))
	for i, d := range ds {
		params[i] = d.Params
	}
	if n := DistinctBatteryTypes(params); n > MaxDistinctOptimalBatteries {
		return fmt.Errorf("%w (bank of %d has %d distinct types, max %d)",
			ErrBankTooDiverse, len(ds), n, MaxDistinctOptimalBatteries)
	}
	return nil
}

// maxBound marks subtrees on which the charge bound cannot cut anything
// (the budget outlasts the load horizon).
const maxBound = math.MaxInt32

// lpProbation is how many LP-relaxation evaluations a search gets to produce
// its first LP-only prune before the LP bound is disabled for the rest of
// that search (per optimizer, so per worker in the parallel search).
const lpProbation = 4096

// memoEntry records what the search has proven about one canonical decision
// state. death is the best realized death step reached from the state; bound
// is a proven upper bound on the death step achievable from it. The entry is
// exact — the subtree's true optimum is known — exactly when death == bound.
// Inexact entries arise when branch-and-bound cut children of the subtree;
// they still prune (via bound) but do not short-circuit a re-expansion.
// Updates keep death at its maximum and bound at its minimum, so entries
// only ever sharpen. by is the worker that stored the current death (0 for
// the serial search); it only feeds the MemoHits/SharedMemoHits attribution
// and carries no search meaning.
type memoEntry struct {
	death int32
	bound int32
	by    uint8
}

// memoTable is the memo storage of an optimizer. The serial search uses a
// plain map (mapMemo); the parallel search shares one sharded, mutex-striped
// table (sharedMemo) across all workers. Both implement the same merge
// semantics: death keeps its maximum (it is a realized value), bound its
// minimum (it is a proven limit). Both stay valid under the merge because
// every stored death is realizable from the state and every stored bound
// provably limits it — which is also why entries written concurrently by
// different workers, each under a different incumbent, can be mixed freely
// (bound proofs never depend on the incumbent; see DESIGN.md).
type memoTable interface {
	lookup(k stateKey) (memoEntry, bool)
	merge(k stateKey, e memoEntry)
}

// mapMemo is the serial search's memo table.
type mapMemo map[stateKey]memoEntry

func (m mapMemo) lookup(k stateKey) (memoEntry, bool) {
	e, ok := m[k]
	return e, ok
}

func (m mapMemo) merge(k stateKey, e memoEntry) {
	if old, ok := m[k]; ok {
		if old.death > e.death {
			e.death, e.by = old.death, old.by
		}
		if old.bound < e.bound {
			e.bound = old.bound
		}
	}
	m[k] = e
}

// cellKey is one battery's state in a memo key. CDisch is omitted: decisions
// always happen with no battery discharging, so the stale discharge clock is
// physically meaningless (Choose resets it).
type cellKey struct {
	n, m, crecov int32
	empty        bool
}

// cellLess orders cell states within an identical-battery group; any strict
// total order works, it only has to be deterministic.
func cellLess(a, b cellKey) bool {
	if a.n != b.n {
		return a.n < b.n
	}
	if a.m != b.m {
		return a.m < b.m
	}
	if a.crecov != b.crecov {
		return a.crecov < b.crecov
	}
	return !a.empty && b.empty
}

// stateKey canonically encodes a decision state. Time (and hence the epoch
// and position within it) plus every battery's discrete state fully
// determine the future, because decisions always happen with no battery
// discharging. Within each identical-battery group the cell states are
// sorted (when canonicalization is on), so permutation-equivalent states
// share one key. Unused battery slots stay at the zero value.
type stateKey struct {
	t     int32
	cells [MaxOptimalBatteries]cellKey
}

type optimizer struct {
	cl    load.Compiled
	opts  searchOpts
	memo  memoTable
	stats SearchStats

	nbat int
	// groups lists, per identical-battery group with at least two members,
	// the battery positions of that group (ascending); empty without
	// canonicalization.
	groups [][]int
	// demand is the load's draw-event profile backing the admissible bound;
	// nil without pruning.
	demand *load.Demand
	// lpb evaluates the LP-relaxation bound; nil unless prune and lpBound.
	lpb *lpBounder

	// incumbent is the best realized death step this optimizer knows of (-1
	// initially). It only ever grows within a solve, and it persists across
	// solve calls; reconstruct deliberately re-primes it per probe.
	incumbent int32
	// ginc, when non-nil, is the parallel search's global incumbent; realized
	// values are published to it and prune checks refresh from it, so one
	// worker's finds cut every worker's subtrees.
	ginc *atomic.Int32
	// wid is this optimizer's worker id, matched against memoEntry.by for
	// the MemoHits/SharedMemoHits attribution.
	wid uint8
	// spawn, when non-nil, is offered every child the solve loop is about to
	// descend into; returning true moves the child's subtree to another task
	// (the parallel search's work splitting). The frame then accounts the
	// child like a cut branch — its admissible bound keeps the parent's memo
	// entry honest, and its realized value reaches the incumbent through the
	// task that solves it.
	spawn func(c *child) bool

	// frame, cell-buffer and child-buffer free lists, reused across pushes
	// and pops so the steady-state search does not allocate.
	frames   []frame
	bufs     [][]dkibam.Cell
	childers [][]child
}

// battGroupKey fingerprints what makes two batteries interchangeable: the
// physical parameters and the discretization grid (the Label is cosmetic).
type battGroupKey struct {
	capacity, c, kPrime float64
	stepMin, unitAmpMin float64
}

func groupKeyOf(d *dkibam.Discretization) battGroupKey {
	return battGroupKey{
		capacity: d.Params.Capacity, c: d.Params.C, kPrime: d.Params.KPrime,
		stepMin: d.StepMin, unitAmpMin: d.UnitAmpMin,
	}
}

// DistinctBatteryTypes counts the non-interchangeable battery types of a
// bank; it owns the interchangeability fingerprint shared by validateBank
// and the spec layer's up-front validation. Labels are cosmetic, and the
// discretization grid is uniform within a bank (NewSystem enforces it), so
// the physical parameters alone decide interchangeability; groupKeyOf adds
// the grid only as a defensive belt for the canonicalization groups.
func DistinctBatteryTypes(params []battery.Params) int {
	type key struct{ capacity, c, kPrime float64 }
	types := make(map[key]struct{}, len(params))
	for _, p := range params {
		types[key{p.Capacity, p.C, p.KPrime}] = struct{}{}
	}
	return len(types)
}

func newOptimizer(ds []*dkibam.Discretization, cl load.Compiled, opts searchOpts) (*optimizer, error) {
	o := &optimizer{
		cl:        cl,
		opts:      opts,
		memo:      make(mapMemo),
		nbat:      len(ds),
		incumbent: -1,
	}
	if opts.canonicalize {
		byKey := make(map[battGroupKey][]int)
		order := make([]battGroupKey, 0, len(ds))
		for i, d := range ds {
			k := groupKeyOf(d)
			if _, seen := byKey[k]; !seen {
				order = append(order, k)
			}
			byKey[k] = append(byKey[k], i)
		}
		for _, k := range order {
			if pos := byKey[k]; len(pos) > 1 {
				o.groups = append(o.groups, pos)
			}
		}
	}
	if opts.prune {
		d, err := load.NewDemand(cl)
		if err != nil {
			return nil, err
		}
		o.demand = d
		if opts.lpBound {
			o.lpb = newLPBounder(ds, cl)
		}
	}
	return o, nil
}

// cumbent returns the freshest incumbent this optimizer may prune against,
// folding in the global one when the search is parallel.
func (o *optimizer) cumbent() int32 {
	if o.ginc != nil {
		if g := o.ginc.Load(); g > o.incumbent {
			o.incumbent = g
		}
	}
	return o.incumbent
}

// raise publishes a realized death step into the incumbent(s). The global
// incumbent is monotone (CAS-max), so concurrent raises keep the maximum.
func (o *optimizer) raise(v int32) {
	if v <= o.incumbent {
		return
	}
	o.incumbent = v
	if o.ginc != nil {
		for {
			cur := o.ginc.Load()
			if v <= cur || o.ginc.CompareAndSwap(cur, v) {
				return
			}
		}
	}
}

// noteHit attributes one exact memo resolution: to MemoHits when this worker
// stored the entry's death itself, to SharedMemoHits when another worker
// did. Exactly one counter moves per lookup.
func (o *optimizer) noteHit(e memoEntry) {
	if e.by == o.wid {
		o.stats.MemoHits++
	} else {
		o.stats.SharedMemoHits++
	}
}

// makeKey canonically encodes sys's decision state.
func (o *optimizer) makeKey(sys *dkibam.System) stateKey {
	var k stateKey
	k.t = int32(sys.Step())
	for i := 0; i < o.nbat; i++ {
		c := sys.Cell(i)
		k.cells[i] = cellKey{n: int32(c.N), m: int32(c.M), crecov: int32(c.CRecov), empty: c.Empty}
	}
	for _, pos := range o.groups {
		// Insertion sort of the group's cell states across its positions;
		// groups are tiny, and the stable sort keeps ties (physically
		// identical batteries) in index order.
		for a := 1; a < len(pos); a++ {
			for b := a; b > 0 && cellLess(k.cells[pos[b]], k.cells[pos[b-1]]); b-- {
				k.cells[pos[b]], k.cells[pos[b-1]] = k.cells[pos[b-1]], k.cells[pos[b]]
			}
		}
	}
	return k
}

// bound returns an admissible upper bound on the death step achievable from
// sys's decision state: the bank can afford at most sum(alive n_i) draw
// events (each draw needs n >= 1 before it and consumes at least one unit)
// plus alive-1 phase resets (each mid-job replacement delays the draw grid
// by less than one period, saving at most one draw, and needs a death of a
// previously alive battery), and the load demands draws on a fixed grid —
// see load.Demand and the admissibility proof in DESIGN.md.
func (o *optimizer) bound(sys *dkibam.System) int32 {
	var supply, alive int64
	for i := 0; i < o.nbat; i++ {
		c := sys.Cell(i)
		if !c.Empty {
			supply += int64(c.N)
			alive++
		}
	}
	step, finite := o.demand.LastServableStep(sys.Step(), sys.Epoch(), supply+alive-1)
	if !finite {
		return maxBound
	}
	return int32(step)
}

// frame is one suspended decision node of the iterative depth-first search.
// Children are expanded eagerly (each advanced to its own decision state)
// and sorted best-bound-first; resolved ones (leaves, exact memo hits) fold
// into best immediately and never occupy a child slot.
type frame struct {
	key      stateKey
	children []child
	next     int   // index into children of the next branch to explore
	best     int32 // best death step over resolved branches
	// prunedUB is the largest admissible bound over branches that were cut
	// (or resolved inexactly, or handed to another task); -1 when none. The
	// frame's value is exact iff best >= prunedUB at completion: everything
	// skipped provably could not exceed what was found.
	prunedUB int32
}

// child is one expanded, not yet explored branch of a frame.
type child struct {
	key   stateKey
	state dkibam.State
	idx   int8  // physical battery index of the parent choice reaching this child
	ub    int32 // admissible bound on the child's death step
}

// errHorizon marks search branches on which the batteries outlived the load.
var errHorizon = errors.New("sched: optimal search ran out of load horizon")

// fold accounts one branch outcome into the frame: v is a realized death
// step (which also tightens the incumbent), vb a proven upper bound on the
// branch (vb > v when the branch was resolved inexactly).
func (o *optimizer) fold(f *frame, v, vb int32) {
	if v > f.best {
		f.best = v
	}
	o.raise(v)
	if vb > v && vb > f.prunedUB {
		f.prunedUB = vb
	}
}

// skip accounts a branch cut by the bound ub.
func (o *optimizer) skip(f *frame, ub int32) {
	o.stats.Pruned++
	if ub > f.prunedUB {
		f.prunedUB = ub
	}
}

// expand builds the frame of the decision state sys currently sits at
// (snapshotted in parent): every alive battery is tried, advanced to its own
// next decision, and either resolved on the spot (leaf, exact memo hit),
// cut by the admissible bound, or kept as a child — sorted best-bound-first
// so the incumbent tightens as early as possible.
func (o *optimizer) expand(sys *dkibam.System, parent dkibam.State, key stateKey) (frame, error) {
	o.stats.States++
	dec, pending, err := sys.AdvanceToDecision()
	if err != nil {
		return frame{}, fmt.Errorf("%w: %w", errHorizon, err)
	}
	if !pending {
		return frame{}, errors.New("sched: optimal search expanded off a decision state")
	}
	// dec.Alive aliases the system's scratch buffer, which the child
	// advances below overwrite; the bank fits a stack copy by construction.
	var alive [MaxOptimalBatteries]int
	na := copy(alive[:], dec.Alive)
	f := frame{key: key, best: -1, prunedUB: -1, children: o.takeChildren()}
	for ai := 0; ai < na; ai++ {
		idx := alive[ai]
		if ai > 0 {
			sys.RestoreState(parent)
		}
		if err := sys.Choose(idx); err != nil {
			o.abandon(&f)
			return frame{}, err
		}
		_, pending, err := sys.AdvanceToDecision()
		if err != nil {
			o.abandon(&f)
			return frame{}, fmt.Errorf("%w: %w", errHorizon, err)
		}
		if !pending {
			o.stats.Leaves++
			v := int32(sys.DeathStep())
			o.fold(&f, v, v)
			continue
		}
		ckey := o.makeKey(sys)
		ub := int32(maxBound)
		known := false
		if e, ok := o.memo.lookup(ckey); ok {
			if e.death == e.bound {
				o.noteHit(e)
				o.fold(&f, e.death, e.death)
				continue
			}
			if o.opts.prune && e.bound <= o.cumbent() {
				o.skip(&f, e.bound)
				continue
			}
			// An inexact entry still carries a proven bound, often tighter
			// than the fresh charge bound: keep the minimum for ordering and
			// for the prune re-check at descend time.
			ub = e.bound
			known = true
		}
		if o.opts.prune {
			if b := o.bound(sys); b < ub {
				ub = b
			}
			if ub <= o.cumbent() {
				o.skip(&f, ub)
				continue
			}
			// The cheap bound failed to prune: lazily try the tighter LP
			// relaxation, but only on first encounters — a re-encountered
			// state carries a searched memo bound already at least as sharp —
			// and only while the relaxation earns its keep: on loads whose
			// bottleneck is total charge rather than availability the LP
			// verdict matches the cheap bound's, so after lpProbation
			// evaluations without a single extra prune it is switched off
			// (skipping an optional admissible bound is always sound, and the
			// rule is deterministic, so serial stats stay reproducible).
			if o.lpb != nil && !known &&
				(o.stats.LPPruned > 0 || o.stats.LPBounds < lpProbation) {
				o.stats.LPBounds++
				if b := o.lpb.bound(sys); b < ub {
					ub = b
					if ub <= o.cumbent() {
						o.stats.LPPruned++
						if ub > f.prunedUB {
							f.prunedUB = ub
						}
						continue
					}
				}
			}
		}
		f.children = append(f.children, child{
			key:   ckey,
			state: sys.SaveState(o.takeBuf()),
			idx:   int8(idx), ub: ub,
		})
	}
	// Best-bound-first, ties on the battery index for determinism.
	cs := f.children
	for a := 1; a < len(cs); a++ {
		for b := a; b > 0 && (cs[b].ub > cs[b-1].ub || (cs[b].ub == cs[b-1].ub && cs[b].idx < cs[b-1].idx)); b-- {
			cs[b], cs[b-1] = cs[b-1], cs[b]
		}
	}
	return f, nil
}

// solve explores the decision tree rooted at sys's next decision point and
// returns the best achievable death step. sys is used as scratch space and
// left in an unspecified state.
//
// Under a spawn hook, subtrees handed to other tasks are not folded into the
// return value; the caller must take the realized optimum from the global
// incumbent instead (every value realized anywhere is achievable from the
// root, so the incumbent's maximum is the root optimum — see DESIGN.md).
func (o *optimizer) solve(sys *dkibam.System) (int, error) {
	_, pending, err := sys.AdvanceToDecision()
	if err != nil {
		return 0, fmt.Errorf("%w: %w", errHorizon, err)
	}
	if !pending {
		o.stats.Leaves++
		v := sys.DeathStep()
		o.raise(int32(v))
		return v, nil
	}
	rootKey := o.makeKey(sys)
	if e, ok := o.memo.lookup(rootKey); ok && e.death == e.bound {
		o.noteHit(e)
		o.raise(e.death)
		return int(e.death), nil
	}
	rootState := sys.SaveState(o.takeBuf())
	root, err := o.expand(sys, rootState, rootKey)
	o.releaseBuf(rootState.Cells)
	if err != nil {
		return 0, err
	}
	stack := o.frames[:0]
	stack = append(stack, root)
	// result carries the (death, bound) of the most recently completed
	// subtree; the owning frame folds it in on its next visit.
	var result, resultBound int32
	returning := false
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if returning {
			o.fold(f, result, resultBound)
			returning = false
		}
		descended := false
		for f.next < len(f.children) {
			c := &f.children[f.next]
			f.next++
			// The incumbent has typically grown since this child was
			// expanded, and its subtree may have been resolved or bounded
			// away under a sibling: re-check both before descending.
			if o.opts.prune && c.ub <= o.cumbent() {
				o.skip(f, c.ub)
				o.releaseChild(c)
				continue
			}
			if e, ok := o.memo.lookup(c.key); ok {
				if e.death == e.bound {
					o.noteHit(e)
					o.fold(f, e.death, e.death)
					o.releaseChild(c)
					continue
				}
				if o.opts.prune && e.bound <= o.cumbent() {
					o.skip(f, e.bound)
					o.releaseChild(c)
					continue
				}
			}
			if o.spawn != nil && o.spawn(c) {
				// Another task owns this subtree now; account its bound like
				// a cut branch so the parent's memo entry stays honest.
				if c.ub > f.prunedUB {
					f.prunedUB = c.ub
				}
				o.releaseChild(c)
				continue
			}
			sys.RestoreState(c.state)
			nf, err := o.expand(sys, c.state, c.key)
			o.releaseChild(c)
			if err != nil {
				for i := range stack {
					o.abandon(&stack[i])
				}
				o.frames = stack[:0]
				return 0, err
			}
			stack = append(stack, nf)
			descended = true
			break
		}
		if descended {
			continue
		}
		// Frame complete: everything skipped is provably at most prunedUB,
		// so the value is exact when best reaches it.
		bound := f.best
		if f.prunedUB > f.best {
			bound = f.prunedUB
		}
		o.memo.merge(f.key, memoEntry{death: f.best, bound: bound, by: o.wid})
		result, resultBound = f.best, bound
		returning = true
		o.releaseChildren(f.children)
		f.children = nil
		stack = stack[:len(stack)-1]
	}
	o.frames = stack
	return int(result), nil
}

// Buffer pools. Children carry saved cell states; both the child slices and
// the cell buffers are recycled so the steady-state search does not
// allocate.

func (o *optimizer) takeBuf() []dkibam.Cell {
	if n := len(o.bufs); n > 0 {
		b := o.bufs[n-1]
		o.bufs = o.bufs[:n-1]
		return b
	}
	return nil
}

func (o *optimizer) releaseBuf(buf []dkibam.Cell) {
	if buf != nil {
		o.bufs = append(o.bufs, buf)
	}
}

func (o *optimizer) releaseChild(c *child) {
	o.releaseBuf(c.state.Cells)
	c.state.Cells = nil
}

func (o *optimizer) takeChildren() []child {
	if n := len(o.childers); n > 0 {
		cs := o.childers[n-1]
		o.childers = o.childers[:n-1]
		return cs[:0]
	}
	return make([]child, 0, MaxOptimalBatteries)
}

func (o *optimizer) releaseChildren(cs []child) {
	if cs != nil {
		o.childers = append(o.childers, cs)
	}
}

// abandon releases a frame's remaining child buffers (error unwinding).
func (o *optimizer) abandon(f *frame) {
	for i := f.next; i < len(f.children); i++ {
		o.releaseChild(&f.children[i])
	}
	o.releaseChildren(f.children)
	f.children = nil
}

// reconstruct derives the canonical optimal schedule once the optimum is
// proven: walking down from walk's current state, it commits at every
// decision to the lowest-indexed battery whose subtree still achieves the
// proven death step. "Achieves needed" is a property of the child state
// alone, so the choice sequence — and hence the schedule bytes — does not
// depend on the memo's content, the search options, the worker count or any
// interleaving; the memo (possibly the parallel search's shared table) only
// short-circuits proving it. needed is invariant down an optimal path
// because death steps are absolute times.
//
// Probes are cheap: a memoised death >= needed accepts and a memoised bound
// < needed rejects without search; otherwise a branch-and-bound solve runs
// with the incumbent primed to needed-1, so it explores only what can still
// reach needed. The probes' work is deliberately excluded from the reported
// SearchStats — States etc. describe the search that proved the optimum,
// and stay comparable across option sets and worker counts.
func (o *optimizer) reconstruct(walk, scratch *dkibam.System, needed int32) (Schedule, error) {
	statsSnap, incSnap, gincSnap, spawnSnap := o.stats, o.incumbent, o.ginc, o.spawn
	// Probes must prune against needed-1 only — a live global incumbent
	// (already at the optimum) would cut the very branches being probed —
	// and must run to completion locally, not hand subtrees away.
	o.ginc, o.spawn = nil, nil
	defer func() { o.stats, o.incumbent, o.ginc, o.spawn = statsSnap, incSnap, gincSnap, spawnSnap }()
	var schedule Schedule
	var parent dkibam.State
	var probeBuf dkibam.State
	for {
		dec, pending, err := walk.AdvanceToDecision()
		if err != nil {
			return nil, fmt.Errorf("%w: %w", errHorizon, err)
		}
		if !pending {
			if int32(walk.DeathStep()) < needed {
				return nil, errors.New("sched: reconstructed schedule misses the proven optimum")
			}
			return schedule, nil
		}
		parent = walk.SaveState(parent.Cells)
		var alive [MaxOptimalBatteries]int
		na := copy(alive[:], dec.Alive)
		picked := -1
		for ai := 0; ai < na && picked < 0; ai++ {
			idx := alive[ai]
			if ai > 0 {
				walk.RestoreState(parent)
			}
			if err := walk.Choose(idx); err != nil {
				return nil, err
			}
			_, pending, err := walk.AdvanceToDecision()
			if err != nil {
				return nil, fmt.Errorf("%w: %w", errHorizon, err)
			}
			if !pending {
				if int32(walk.DeathStep()) >= needed {
					picked = idx
				}
				continue
			}
			key := o.makeKey(walk)
			if e, ok := o.memo.lookup(key); ok {
				if e.death >= needed {
					picked = idx
					continue
				}
				if e.bound < needed {
					continue
				}
			}
			o.incumbent = needed - 1
			probeBuf = walk.SaveState(probeBuf.Cells)
			scratch.RestoreState(probeBuf)
			v, err := o.solve(scratch)
			if err != nil {
				return nil, err
			}
			if int32(v) >= needed {
				picked = idx
			}
		}
		if picked < 0 {
			return nil, errors.New("sched: reconstruction found no branch achieving the optimum")
		}
		walk.RestoreState(parent)
		if err := walk.Choose(picked); err != nil {
			return nil, err
		}
		schedule = append(schedule, Choice{
			Step:    dec.Step,
			Minutes: float64(dec.Step) * o.cl.StepMin,
			Epoch:   dec.Epoch,
			Reason:  dec.Reason,
			Battery: picked,
		})
	}
}
