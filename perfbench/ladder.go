package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"sort"
	"time"

	"batsched/internal/core"
	"batsched/internal/jobs"
	"batsched/internal/obs"
	"batsched/internal/service"
	"batsched/internal/session"
	"batsched/internal/spec"
	"batsched/internal/store"
	"batsched/internal/sweep"
)

// The ladder runs the workload's seeded inputs through each layer's public
// functions in-process, one caller and one sweep worker, bottom up:
//
//	rung 1  engine   core.Compiled.PolicyLifetimeCount on precompiled cells
//	rung 2  sweep    sweep.Run (+ NDJSON encoding), timed compile hook
//	rung 3  service  Service.SweepStreamLines, no store
//	rung 4  store    rung 3 on a timed memory store: a cold pass that
//	                 evaluates and stores every cell, then a warm pass of
//	                 the same requests that the store answers
//	        obs      the cold pass with a tracer armed through obs.WithTracer
//	rung 5  jobs     jobs.Manager Submit + Wait + Results on rung 4
//
// plus the spec and digest front ends, the optimal search and the session
// layer on their own inputs. The time per cell at two rungs differs by the
// tax of the layers between them.

// ladderSize scales the ladder with the run length; the counts are fixed
// for a given -seconds, so every count metric repeats exactly per seed.
type ladderSize struct {
	grids, optimal, steps int
}

func sizeFor(seconds int) ladderSize {
	return ladderSize{grids: 4 * seconds, optimal: 60 * seconds, steps: 500 * seconds}
}

// sessionDevices is the number of devices of the session rung.
const sessionDevices = 32

// diffRequests is how many grid requests the ladder differential compares
// against the HTTP answers.
const diffRequests = 3

// ladder holds the inputs and the results of one ladder run.
type ladder struct {
	seed   int64
	size   ladderSize
	grids  []spec.Scenario
	bodies [][]byte // HTTP answers to grids[:diffRequests]
	m      map[string]float64
	errs   []error
	// Median request latency of the top rungs, for the HTTP tax.
	storeP50Ms, searchP50Ms float64
}

// mallocs returns the process's cumulative heap allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// rungRun is the outcome of one timed pass over the grid requests.
type rungRun struct {
	elapsed time.Duration
	allocs  uint64
	lat     []float64 // per request, ms
	lines   [][][]byte
}

// overGrids times fn on every grid request and keeps the answers of the
// first diffRequests for the differential.
func (l *ladder) overGrids(fn func(i int, sc spec.Scenario) ([][]byte, error)) (rungRun, error) {
	var r rungRun
	runtime.GC()
	a0 := mallocs()
	start := time.Now()
	for i, sc := range l.grids {
		t0 := time.Now()
		lines, err := fn(i, sc)
		if err != nil {
			return r, fmt.Errorf("grid %d: %w", i, err)
		}
		r.lat = append(r.lat, float64(time.Since(t0).Nanoseconds())/1e6)
		if i < diffRequests {
			r.lines = append(r.lines, lines)
		}
	}
	r.elapsed = time.Since(start)
	r.allocs = mallocs() - a0
	return r, nil
}

// cells is the number of cells the grid rungs process.
func (l *ladder) cells() float64 { return float64(len(l.grids) * gridCells) }

func (l *ladder) perCellUs(r rungRun) float64 {
	return float64(r.elapsed.Nanoseconds()) / 1e3 / l.cells()
}

// differential requires a rung's lines byte-identical to the HTTP answer.
func (l *ladder) differential(rung string, r rungRun) {
	for i, lines := range r.lines {
		var b bytes.Buffer
		for _, line := range lines {
			b.Write(line)
			b.WriteByte('\n')
		}
		if i >= len(l.bodies) || !bytes.Equal(b.Bytes(), l.bodies[i]) {
			l.errs = append(l.errs, fmt.Errorf("ladder differential: rung %s grid %d differs from the HTTP answer", rung, i))
		}
	}
}

// runSweep evaluates a compiled scenario through sweep.Run with one worker
// and encodes every result as batserve's NDJSON line. A nil compile hook
// means the sweep layer's own.
func runSweep(sp sweep.Spec, compile compileFunc) ([][]byte, error) {
	results, err := sweep.Run(sp, sweep.Options{Workers: 1, Compile: compile})
	if err != nil {
		return nil, err
	}
	lines := make([][]byte, len(results))
	for i, r := range results {
		res := service.Result{
			Grid: r.Grid, Bank: r.Bank, Load: r.Load, Solver: r.Policy,
			LifetimeMin: r.Lifetime, Decisions: r.Decisions, Stats: r.Stats,
		}
		if r.Err != nil {
			res.Error = r.Err.Error()
		}
		lines[i] = mustJSON(res)
	}
	return lines, nil
}

// sweepLines is runSweep on a scenario, compiled first.
func sweepLines(sc spec.Scenario, compile compileFunc) ([][]byte, error) {
	sp, err := sc.Compile()
	if err != nil {
		return nil, err
	}
	return runSweep(sp, compile)
}

// newStore returns a fresh, empty timed memory store.
func newStore() (*timedBackend, error) {
	st, err := store.Open("")
	if err != nil {
		return nil, err
	}
	return &timedBackend{Backend: st}, nil
}

// serviceLines runs one request through Service.SweepStreamLines.
func serviceLines(ctx context.Context, svc *service.Service, sc spec.Scenario) ([][]byte, error) {
	var lines [][]byte
	err := svc.SweepStreamLines(ctx, service.SweepRequest{Scenario: sc, Workers: 1},
		func(sl service.SweepLine) error {
			lines = append(lines, append([]byte(nil), sl.Line...))
			return nil
		})
	return lines, err
}

// run executes every rung and fills l.m.
func (l *ladder) run() error {
	steps := []func() error{
		l.engineRung, l.sweepRung, l.frontEnds, l.serviceRung,
		l.storeRungs, l.jobsRung, l.searchRung, l.sessionRung,
	}
	for _, step := range steps {
		if err := step(); err != nil {
			return err
		}
	}
	return nil
}

// engineRung: rung 1. Cells are compiled outside the timed region; only
// the policy runs are timed.
func (l *ladder) engineRung() error {
	var ns int64
	var allocs uint64
	decisions := 0
	for i, sc := range l.grids {
		sp, err := sc.Compile()
		if err != nil {
			return err
		}
		var cells []*core.Compiled
		for _, g := range sp.Grids {
			for _, b := range sp.Banks {
				for _, lc := range sp.Loads {
					c, err := core.Compile(b.Batteries, lc.Load, g.StepMin, g.UnitAmpMin)
					if err != nil {
						return fmt.Errorf("grid %d: %w", i, err)
					}
					cells = append(cells, c)
				}
			}
		}
		a0 := mallocs()
		t0 := time.Now()
		for _, c := range cells {
			for _, pc := range sp.Policies {
				_, dec, err := c.PolicyLifetimeCount(pc.Policy)
				if err != nil {
					return fmt.Errorf("grid %d engine: %w", i, err)
				}
				decisions += dec
			}
		}
		ns += time.Since(t0).Nanoseconds()
		allocs += mallocs() - a0
	}
	l.m["engine.us_per_cell"] = float64(ns) / 1e3 / l.cells()
	l.m["engine.decisions_per_cell"] = float64(decisions) / l.cells()
	l.m["engine.allocs_per_cell"] = float64(allocs) / l.cells()
	return nil
}

// sweepRung: rung 2, on specs compiled outside the timed region.
func (l *ladder) sweepRung() error {
	specs := make([]sweep.Spec, len(l.grids))
	for i, sc := range l.grids {
		sp, err := sc.Compile()
		if err != nil {
			return err
		}
		specs[i] = sp
	}
	var ct compileTimer
	compile := ct.wrap(plainCompile)
	r, err := l.overGrids(func(i int, _ spec.Scenario) ([][]byte, error) {
		return runSweep(specs[i], compile)
	})
	if err != nil {
		return err
	}
	l.differential("sweep", r)
	l.m["sweep.us_per_cell"] = l.perCellUs(r)
	l.m["sweep.allocs_per_cell"] = float64(r.allocs) / l.cells()
	l.m["core.compile_us_per_cell"] = float64(ct.ns.Load()) / 1e3 / float64(ct.n.Load())
	return nil
}

// frontEnds times the request front ends: spec decode + compile, and the
// service's cell digests (which compile the spec again).
func (l *ladder) frontEnds() error {
	raw := make([][]byte, len(l.grids))
	for i, sc := range l.grids {
		raw[i] = mustJSON(sc)
	}
	r, err := l.overGrids(func(i int, _ spec.Scenario) ([][]byte, error) {
		sc, err := spec.ParseScenario(raw[i])
		if err != nil {
			return nil, err
		}
		_, err = sc.Compile()
		return nil, err
	})
	if err != nil {
		return err
	}
	l.m["spec.us_per_req"] = float64(r.elapsed.Nanoseconds()) / 1e3 / float64(len(l.grids))
	r, err = l.overGrids(func(_ int, sc spec.Scenario) ([][]byte, error) {
		_, _, err := service.CellDigests(service.SweepRequest{Scenario: sc})
		return nil, err
	})
	if err != nil {
		return err
	}
	l.m["service.digest_us_per_cell"] = l.perCellUs(r)
	return nil
}

// serviceRung: rung 3, the service without a store.
func (l *ladder) serviceRung() error {
	svc := service.New(service.Options{MaxConcurrent: 1})
	r, err := l.overGrids(func(_ int, sc spec.Scenario) ([][]byte, error) {
		return serviceLines(context.Background(), svc, sc)
	})
	if err != nil {
		return err
	}
	l.differential("service", r)
	st := svc.Stats()
	l.m["service.us_per_cell"] = l.perCellUs(r)
	l.m["service.allocs_per_cell"] = float64(r.allocs) / l.cells()
	l.m["service.compile_cache_hit_ratio"] = ratio(float64(st.Hits), float64(st.Hits+st.Compiles))
	l.m["core.compiles_per_req"] = float64(st.Compiles) / float64(len(l.grids))
	return nil
}

// storeRungs: rung 4 cold, then warm on the store the cold pass filled,
// then cold again on a fresh store with tracing armed.
func (l *ladder) storeRungs() error {
	tb, err := newStore()
	if err != nil {
		return err
	}
	svc := service.New(service.Options{MaxConcurrent: 1, Store: tb})
	pass := func() (rungRun, error) {
		return l.overGrids(func(_ int, sc spec.Scenario) ([][]byte, error) {
			return serviceLines(context.Background(), svc, sc)
		})
	}
	r, err := pass()
	if err != nil {
		return err
	}
	l.differential("store", r)
	l.m["store.us_per_cell"] = l.perCellUs(r)
	l.m["store.allocs_per_cell"] = float64(r.allocs) / l.cells()
	l.m["store.put_us_per_cell"] = ratio(float64(tb.putNs.Load())/1e3, float64(tb.puts.Load()))
	l.storeP50Ms = median(r.lat)
	disarmed := l.perCellUs(r)

	// Warm: the same requests again. Only the lookups of this pass are
	// counted, so hit_ratio is 1 unless the store stops answering.
	tb.lookupNs.Store(0)
	tb.lookups.Store(0)
	tb.probed.Store(0)
	tb.hits.Store(0)
	r, err = pass()
	if err != nil {
		return err
	}
	l.differential("store-warm", r)
	l.m["store.hit_us_per_cell"] = l.perCellUs(r)
	l.m["store.lookup_us_per_req"] = float64(tb.lookupNs.Load()) / 1e3 / float64(tb.lookups.Load())
	l.m["store.hit_ratio"] = ratio(float64(tb.hits.Load()), float64(tb.probed.Load()))

	// Armed: the cold pass on a fresh store, each request under a tracer
	// whose ring holds every span of the pass.
	tb, err = newStore()
	if err != nil {
		return err
	}
	tracer := obs.NewTracer(len(l.grids)*(2+2*gridCells) + 64)
	svc = service.New(service.Options{MaxConcurrent: 1, Store: tb})
	ctx := obs.WithTracer(context.Background(), tracer)
	r, err = l.overGrids(func(_ int, sc spec.Scenario) ([][]byte, error) {
		return serviceLines(ctx, svc, sc)
	})
	if err != nil {
		return err
	}
	l.differential("store+trace", r)
	l.m["obs.trace_overhead_ratio"] = l.perCellUs(r) / disarmed
	if tracer.Dropped() > 0 {
		return fmt.Errorf("span ring overflowed: %d spans dropped", tracer.Dropped())
	}
	for name, us := range selfTimes(tracer.Snapshot()) {
		l.m["obs.self_us."+name] = us
	}
	return nil
}

// selfSpans are the existing spans of the sweep path whose self time the
// ladder reports.
var selfSpans = []string{"service.sweep", "store.lookup", "store.commit", "sweep.cell"}

// selfTimes returns the mean self time in µs of each span in selfSpans: its
// duration minus the part of it that its children cover.
func selfTimes(recs []obs.SpanRecord) map[string]float64 {
	type iv struct{ lo, hi int64 }
	kids := map[string][]iv{}
	for _, r := range recs {
		if r.Parent != "" {
			lo := r.Start.UnixNano()
			kids[r.Parent] = append(kids[r.Parent], iv{lo, lo + r.DurationNs})
		}
	}
	sum := map[string]float64{}
	n := map[string]float64{}
	for _, r := range recs {
		lo := r.Start.UnixNano()
		hi := lo + r.DurationNs
		// Union of the child intervals, clipped to the span.
		cs := kids[r.Span]
		sort.Slice(cs, func(a, b int) bool { return cs[a].lo < cs[b].lo })
		covered, end := int64(0), lo
		for _, c := range cs {
			s, e := max(c.lo, end), min(c.hi, hi)
			if e > s {
				covered += e - s
				end = e
			}
		}
		sum[r.Name] += float64(r.DurationNs-covered) / 1e3
		n[r.Name]++
	}
	out := map[string]float64{}
	for _, name := range selfSpans {
		out[name] = ratio(sum[name], n[name])
	}
	return out
}

// jobsRung: rung 5, the job manager over a rung-4 service.
func (l *ladder) jobsRung() error {
	tb, err := newStore()
	if err != nil {
		return err
	}
	wait := obs.NewHistogram(nil)
	svc := service.New(service.Options{MaxConcurrent: 1, Store: tb})
	mgr := jobs.New(svc, tb, jobs.Options{Workers: 1, QueueWait: wait})
	defer mgr.Shutdown(context.Background())
	r, err := l.overGrids(func(_ int, sc spec.Scenario) ([][]byte, error) {
		sub, err := mgr.Submit(jobs.Request{Scenario: sc, Workers: 1})
		if err != nil {
			return nil, err
		}
		final, err := mgr.Wait(context.Background(), sub.ID)
		if err != nil {
			return nil, err
		}
		if final.State != jobs.StateDone {
			return nil, fmt.Errorf("job %s: %s", final.State, final.Error)
		}
		raw, err := mgr.Results(sub.ID)
		if err != nil {
			return nil, err
		}
		lines := make([][]byte, len(raw))
		for i, line := range raw {
			lines[i] = line
		}
		return lines, nil
	})
	if err != nil {
		return err
	}
	l.differential("jobs", r)
	l.m["jobs.us_per_cell"] = l.perCellUs(r)
	l.m["jobs.queue_wait_ms_p50"] = wait.Snapshot().Quantile(0.5) * 1e3
	return nil
}

// searchRung times core.Compiled.OptimalLifetimeWithStats on the
// optimal-cells inputs; cells are compiled outside the timed region.
func (l *ladder) searchRung() error {
	var ns int64
	var allocs uint64
	var sum struct{ states, memo, pruned, lpb, lpp int64 }
	var lat []float64
	for i := 0; i < l.size.optimal; i++ {
		sp, err := optimalRun(l.seed, i).Scenario().Compile()
		if err != nil {
			return err
		}
		g := sweep.PaperGrid()
		c, err := core.Compile(sp.Banks[0].Batteries, sp.Loads[0].Load, g.StepMin, g.UnitAmpMin)
		if err != nil {
			return err
		}
		a0 := mallocs()
		t0 := time.Now()
		_, _, stats, err := c.OptimalLifetimeWithStats()
		d := time.Since(t0)
		allocs += mallocs() - a0
		if err != nil {
			return fmt.Errorf("optimal cell %d: %w", i, err)
		}
		ns += d.Nanoseconds()
		lat = append(lat, float64(d.Nanoseconds())/1e6)
		sum.states += stats.States
		sum.memo += stats.MemoHits
		sum.pruned += stats.Pruned
		sum.lpb += stats.LPBounds
		sum.lpp += stats.LPPruned
	}
	cells := float64(l.size.optimal)
	l.m["search.ms_per_cell"] = float64(ns) / 1e6 / cells
	l.m["search.states_per_cell"] = float64(sum.states) / cells
	l.m["search.lp_bounds_per_cell"] = float64(sum.lpb) / cells
	l.m["search.lp_prune_ratio"] = ratio(float64(sum.lpp), float64(sum.lpb))
	l.m["search.memo_hit_ratio"] = ratio(float64(sum.memo), float64(sum.memo+sum.states))
	l.m["search.prune_ratio"] = ratio(float64(sum.pruned), float64(sum.pruned+sum.states))
	l.m["search.ns_per_state"] = ratio(float64(ns), float64(sum.states))
	l.m["search.allocs_per_cell"] = float64(allocs) / cells
	l.searchP50Ms = median(lat)
	return nil
}

// sessionRung steps the seeded session devices in-process through a
// session.Manager wired to a service's bank cache, as batserve wires it.
// Each life of a device is opened (timed), stepped until its bank dies
// (each step timed) and closed.
func (l *ladder) sessionRung() error {
	svc := service.New(service.Options{})
	m := session.NewManager(session.Options{CompileBank: svc.CompileBank})
	defer m.Shutdown(context.Background())
	// A life can run past size.steps; the slack keeps appends to stepLat
	// from allocating.
	stepLat := make([]float64, 0, 2*l.size.steps)
	var openLat []float64
	var allocs uint64
	var tel session.Telemetry
	gens := make([]int, sessionDevices)
	for d := 0; len(stepLat) < l.size.steps; d = (d + 1) % sessionDevices {
		t0 := time.Now()
		s, err := m.Open(deviceSession(d))
		if err != nil {
			return err
		}
		openLat = append(openLat, float64(time.Since(t0).Nanoseconds())/1e3)
		for k := 0; ; k++ {
			ev := deviceEvent(l.seed, d, gens[d], k)
			a0 := mallocs()
			t0 := time.Now()
			err := m.Step(s.ID(), ev.CurrentA, ev.DurationMin, &tel)
			stepLat = append(stepLat, float64(time.Since(t0).Nanoseconds())/1e3)
			allocs += mallocs() - a0
			if err != nil {
				return fmt.Errorf("device %d step %d: %w", d, k, err)
			}
			if tel.Dead {
				break
			}
		}
		gens[d]++
		if err := m.Close(s.ID()); err != nil {
			return err
		}
	}
	s := sorted(stepLat)
	p99, err := tailQuantile(s, 0.99)
	if err != nil {
		return fmt.Errorf("session steps: %w", err)
	}
	l.m["session.step_us_p50"] = quantile(s, 0.5)
	l.m["session.step_us_p99"] = p99
	l.m["session.open_us"] = median(openLat)
	l.m["session.allocs_per_step"] = float64(allocs) / float64(len(stepLat))
	return nil
}
