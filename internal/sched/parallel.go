package sched

import (
	"runtime"
	"sync"
	"sync/atomic"

	"batsched/internal/dkibam"
	"batsched/internal/load"
)

// solveParallel is the work-stealing search behind Solve (Workers > 1). Every
// worker runs the same branch-and-bound depth-first search as the serial
// optimizer, but the three pieces of global knowledge are shared: the memo
// table (sharded, mutex-striped), the incumbent (a single atomic, CAS-max),
// and the pool of open subtrees (per-worker deques; an idle worker steals
// the shallowest task of a busy one). Workers split work on demand — a busy
// worker hands subtrees to its deque only while some worker is hungry — so a
// search that fits one core runs essentially serially.
//
// The lifetime and schedule are identical to the serial search's for every
// worker count and every interleaving:
//
//   - Lifetime. The result is read from the global incumbent. Every task's
//     root state is reachable from the search root (tasks are only ever
//     split off live search paths), so every realized death step folded into
//     the incumbent is achievable — the incumbent never overshoots. And the
//     optimum is never lost: pruning cuts a subtree only when a proven
//     admissible bound says it cannot beat the incumbent, memo entries stay
//     valid under concurrent keep-max/keep-min merging because deaths are
//     realized values and bounds are incumbent-independent proofs, and a
//     subtree handed to another task is accounted as a bound, not a value.
//     So the incumbent ends at exactly the serial optimum.
//
//   - Schedule. It is not assembled from the (scheduling-dependent) search;
//     it is reconstructed afterwards by canonical probing (see reconstruct),
//     which commits at every decision to the lowest-indexed battery whose
//     subtree provably still reaches the optimum — a property of the state,
//     not of the search history. The shared memo only short-circuits probes.
//
// It returns a fresh optimizer over the shared memo for that reconstruction,
// carrying the search statistics summed over all workers. Each worker counts
// its own work into private counters merged once at the end, so no event is
// counted twice; in particular a memo lookup increments MemoHits or
// SharedMemoHits (never both) in exactly one worker's counters.
func solveParallel(ds []*dkibam.Discretization, cl load.Compiled, workers int, so searchOpts) (*optimizer, int32, SearchStats, error) {
	root, err := dkibam.NewSystem(ds, cl)
	if err != nil {
		return nil, 0, SearchStats{}, err
	}
	p := &parSearch{memo: newSharedMemo(), deques: make([]psDeque, workers)}
	p.inc.Store(-1)
	p.pending.Store(1)
	p.deques[0].push(psTask{state: root.SaveState(nil)})

	var (
		wg      sync.WaitGroup
		statsMu sync.Mutex
		stats   SearchStats
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sys, err := dkibam.NewSystem(ds, cl)
			if err != nil {
				p.fail(err)
				return
			}
			o, err := newOptimizer(ds, cl, so)
			if err != nil {
				p.fail(err)
				return
			}
			o.memo, o.ginc, o.wid = p.memo, &p.inc, uint8(w)
			o.spawn = func(c *child) bool {
				// Split only while someone is hungry; the handed-off state
				// must be copied out of the pooled child buffer.
				if p.hungry.Load() == 0 {
					return false
				}
				st := c.state
				st.Cells = append([]dkibam.Cell(nil), st.Cells...)
				p.pending.Add(1)
				p.deques[w].push(psTask{state: st})
				return true
			}
			for {
				t, ok := p.next(w, &o.stats)
				if !ok {
					break
				}
				sys.RestoreState(t.state)
				_, err := o.solve(sys)
				p.pending.Add(-1)
				if err != nil {
					p.fail(err)
					break
				}
			}
			statsMu.Lock()
			stats.Add(o.stats)
			statsMu.Unlock()
		}(w)
	}
	wg.Wait()
	if p.err != nil {
		return nil, 0, stats, p.err
	}
	// Reconstruction runs serially on a fresh optimizer over the shared
	// memo; its probes never see the workers' incumbents or spawn hooks.
	ro, err := newOptimizer(ds, cl, so)
	if err != nil {
		return nil, 0, stats, err
	}
	ro.memo, ro.stats = p.memo, stats
	return ro, p.inc.Load(), stats, nil
}

// psTask is one open subtree of the parallel search: a saved system state
// sitting at (or just before) a decision.
type psTask struct {
	state dkibam.State
}

// psDeque is one worker's task queue. The owner pushes and pops at the tail
// (depth-first, cache-warm); thieves steal from the head, where the
// shallowest — and therefore typically largest — subtrees sit. Tasks are
// coarse and splitting is hungry-gated, so a mutex outperforms a lock-free
// deque here in both simplicity and worst-case behavior.
type psDeque struct {
	mu sync.Mutex
	ts []psTask
}

func (d *psDeque) push(t psTask) {
	d.mu.Lock()
	d.ts = append(d.ts, t)
	d.mu.Unlock()
}

func (d *psDeque) pop() (psTask, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := len(d.ts)
	if n == 0 {
		return psTask{}, false
	}
	t := d.ts[n-1]
	d.ts[n-1] = psTask{}
	d.ts = d.ts[:n-1]
	return t, true
}

func (d *psDeque) steal() (psTask, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.ts) == 0 {
		return psTask{}, false
	}
	t := d.ts[0]
	d.ts = append(d.ts[:0], d.ts[1:]...)
	return t, true
}

// parSearch is the shared state of one parallel search run.
type parSearch struct {
	memo   *sharedMemo
	deques []psDeque
	// inc is the global incumbent: the best realized death step so far.
	inc atomic.Int32
	// pending counts open tasks. A split increments it before the task is
	// pushed and a worker decrements it only after fully solving the task's
	// subtree (splits made along the way have already incremented), so
	// pending == 0 is a sound termination signal: it can only be observed
	// when no task is queued anywhere and none is being solved.
	pending atomic.Int64
	// hungry counts workers currently looking for work; busy workers split
	// subtrees off only while it is nonzero.
	hungry atomic.Int32

	failed atomic.Bool
	errMu  sync.Mutex
	err    error
}

// fail records the first error and tells every worker to wind down.
func (p *parSearch) fail(err error) {
	p.errMu.Lock()
	if p.err == nil {
		p.err = err
	}
	p.errMu.Unlock()
	p.failed.Store(true)
}

// next returns worker w's next task: its own newest, else one stolen from a
// sibling, else — once no task exists anywhere and none can appear — done.
func (p *parSearch) next(w int, stats *SearchStats) (psTask, bool) {
	if t, ok := p.deques[w].pop(); ok {
		return t, true
	}
	p.hungry.Add(1)
	defer p.hungry.Add(-1)
	for {
		if p.failed.Load() {
			return psTask{}, false
		}
		for off := 1; off < len(p.deques); off++ {
			if t, ok := p.deques[(w+off)%len(p.deques)].steal(); ok {
				stats.Steals++
				return t, true
			}
		}
		if p.pending.Load() == 0 {
			return psTask{}, false
		}
		runtime.Gosched()
	}
}

// memoShards is the stripe count of the shared memo; a power of two well
// above any worker count, so shard collisions between concurrently active
// lookups are rare.
const memoShards = 64

type memoShard struct {
	mu sync.Mutex
	m  map[stateKey]memoEntry
}

// sharedMemo is the parallel search's memoTable: one map striped over
// memoShards mutexes. Merging implements the same keep-max death /
// keep-min bound semantics as the serial mapMemo, and both directions stay
// valid under any interleaving because deaths are realized (achievable)
// values and bounds are proofs that hold regardless of which worker's
// incumbent was live when they were derived.
type sharedMemo struct {
	shards [memoShards]memoShard
}

func newSharedMemo() *sharedMemo {
	s := &sharedMemo{}
	for i := range s.shards {
		s.shards[i].m = make(map[stateKey]memoEntry)
	}
	return s
}

func (s *sharedMemo) lookup(k stateKey) (memoEntry, bool) {
	sh := &s.shards[k.hash()%memoShards]
	sh.mu.Lock()
	e, ok := sh.m[k]
	sh.mu.Unlock()
	return e, ok
}

func (s *sharedMemo) merge(k stateKey, e memoEntry) {
	sh := &s.shards[k.hash()%memoShards]
	sh.mu.Lock()
	if old, ok := sh.m[k]; ok {
		if old.death > e.death {
			e.death, e.by = old.death, old.by
		}
		if old.bound < e.bound {
			e.bound = old.bound
		}
	}
	sh.m[k] = e
	sh.mu.Unlock()
}

// hash mixes a stateKey FNV-style for shard selection.
func (k stateKey) hash() uint32 {
	h := uint64(14695981039346656037)
	const prime = 1099511628211
	h ^= uint64(uint32(k.t))
	h *= prime
	for i := range k.cells {
		c := &k.cells[i]
		h ^= uint64(uint32(c.n)) | uint64(uint32(c.m))<<32
		h *= prime
		var e uint64
		if c.empty {
			e = 1
		}
		h ^= uint64(uint32(c.crecov)) | e<<32
		h *= prime
	}
	return uint32(h ^ h>>32)
}
