package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"time"

	"batsched/internal/experiments"
	"batsched/internal/load"
	"batsched/internal/service"
	"batsched/internal/spec"
)

// workload is one traffic mix driven against a live batserve.
type workload struct {
	name string
	// route labels the measured requests in batserve's request histogram.
	route string
	// grid generates request i of a grid workload; nil otherwise.
	grid func(seed int64, i int) spec.Scenario
	// shortRequests marks requests that take under a millisecond on one
	// CPU. A hypervisor stall of a few milliseconds overlaps few of them,
	// so their median is reported as observed; a request that keeps both
	// CPUs busy for ten milliseconds is slowed by the stolen share and its
	// median is corrected like the p99 (see e2e).
	shortRequests bool
	// rssOpsPerS is about half the operation rate the workload reaches
	// on a two-CPU machine; server_peak_rss_mb is read once the drive has
	// attempted rssOpsPerS × half its seconds of operations.
	rssOpsPerS int64
}

var workloads = []workload{
	{name: "grid-cold", route: "POST /v1/sweep", grid: coldGrid, rssOpsPerS: 8000},
	{name: "optimal-cells", route: "POST /v1/run", shortRequests: true, rssOpsPerS: 500},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

const (
	// setups is how many times each run starts batserve; setup_s is the
	// fastest.
	setups = 25
	// sampleEvery sets the share of requests whose answers are recomputed
	// in-process after timing.
	sampleEvery = 16
	// warmBase offsets the request indices of warm-up traffic, so warm-up
	// never touches a cell the timed phase sends.
	warmBase = 1 << 30
)

// harness holds what every phase of one run needs.
type harness struct {
	w     workload
	seed  int64
	bin   string // batserve binary
	dir   string // run directory: store file, logs
	procs int    // GOMAXPROCS of server and generator
	store string // the store file batserve runs on
	// traced shapes the drive of the traced run like the ladder: one
	// sweep worker per request, so the HTTP latency and the in-process
	// rungs measure the same single-threaded request.
	traced bool
}

func newHarness(w workload, seed int64, bin, dir string, procs int) *harness {
	return &harness{w: w, seed: seed, bin: bin, dir: dir, procs: procs,
		store: filepath.Join(dir, "store.ndjson")}
}

func (h *harness) config() serverConfig {
	return serverConfig{bin: h.bin, store: h.store, dir: h.dir, procs: h.procs}
}

// sweepWorkers is the sweep worker count grid requests ask for; 0 lets
// batserve use one per CPU.
func (h *harness) sweepWorkers() int {
	if h.traced {
		return 1
	}
	return 0
}

// launch starts batserve setups times on the run's store file and keeps
// the last instance running.
func (h *harness) launch() (*server, []float64, error) {
	var times []float64
	for n := 0; ; n++ {
		srv, d, err := startServer(h.config(), n)
		if err != nil {
			return nil, nil, err
		}
		times = append(times, d.Seconds())
		if n == setups-1 {
			return srv, times, nil
		}
		if err := srv.stop(); err != nil {
			return nil, nil, err
		}
	}
}

// tally collects the client-side outcome of a drive.
type tally struct {
	lat       []float64 // request latency, ms
	ops       int64     // operations completed without failure
	attempted int64
	failed    int64
	problems  []string // the first few failures, for the log
	kept      []kept   // answers recomputed in-process after timing
	// mark is the attempted-operation count at which the drive reads the
	// server's peak RSS into rss; 0 when the run reports no RSS.
	mark int64
	rss  float64
}

// kept is one sampled answer: cell `cell` of request i, as served.
type kept struct {
	i, cell int
	line    []byte
}

// record notes one answered request; it reports whether this request
// brought the attempted operations to t.mark.
func (t *tally) record(lat time.Duration, ops, failed int, why string) bool {
	crossed := t.attempted < t.mark && t.attempted+int64(ops) >= t.mark
	t.lat = append(t.lat, float64(lat.Nanoseconds())/1e6)
	t.attempted += int64(ops)
	t.failed += int64(failed)
	t.ops += int64(ops - failed)
	if failed > 0 {
		t.problem(why)
	}
	return crossed
}

// problem notes a failure description.
func (t *tally) problem(why string) {
	if len(t.problems) < 5 {
		t.problems = append(t.problems, why)
	}
}

// checkLines validates an NDJSON answer of want result lines: status 200,
// exactly want newline-terminated lines, each a result without an error.
// It returns the lines and how many operations failed.
func checkLines(status int, body []byte, err error, want int) ([][]byte, int, string) {
	switch {
	case err != nil:
		return nil, want, err.Error()
	case status != http.StatusOK:
		return nil, want, fmt.Sprintf("status %d: %.200s", status, body)
	case !bytes.HasSuffix(body, []byte{'\n'}):
		return nil, want, "answer not newline-terminated"
	}
	lines := bytes.Split(body[:len(body)-1], []byte{'\n'})
	if len(lines) != want {
		return nil, want, fmt.Sprintf("%d lines, want %d", len(lines), want)
	}
	bad, why := 0, ""
	for _, l := range lines {
		if bytes.Contains(l, []byte(`"error":`)) || !bytes.Contains(l, []byte(`"lifetime_min":`)) {
			bad++
			why = fmt.Sprintf("cell error: %.200s", l)
		}
	}
	return lines, bad, why
}

// clients is the closed-loop client count, on one keep-alive connection.
// The callers of this service wait for their answer, so the drive is a
// closed loop. One client leaves a CPU of a two-CPU machine to the
// generator and the server's runtime: with one client per CPU every CPU
// is busy, and a CPU the hypervisor takes away for a few milliseconds
// stalls queued requests behind it, which sets the tail of sub-millisecond
// requests.
const clients = 1

// closedLoop sends request after request from start until dur has passed.
func closedLoop(start time.Time, dur time.Duration, send func(i int)) {
	for i := 0; time.Since(start) < dur; i++ {
		send(i)
	}
}

// readRSS reads the server's peak RSS into t.rss; the one request that
// reaches t.mark calls it.
func readRSS(t *tally, srv *server) {
	rss, err := srv.peakRSSMB()
	if err != nil {
		t.problem(err.Error())
		return
	}
	t.rss = rss
}

// driveGrid sends grid requests closed-loop; sampled answers are kept for
// recomputation.
func (h *harness) driveGrid(c *client, srv *server, t *tally, start time.Time, dur time.Duration) {
	closedLoop(start, dur, func(i int) {
		body := mustJSON(service.SweepRequest{Scenario: h.w.grid(h.seed, i), Workers: h.sweepWorkers()})
		t0 := time.Now()
		status, resp, err := c.do(http.MethodPost, "/v1/sweep", body)
		lat := time.Since(t0)
		lines, bad, why := checkLines(status, resp, err, gridCells)
		if t.record(lat, gridCells, bad, fmt.Sprintf("grid %d: %s", i, why)) {
			readRSS(t, srv)
		}
		if ok, cell := sampled(h.seed, i, sampleEvery, gridCells); ok && lines != nil {
			t.kept = append(t.kept, kept{i: i, cell: cell, line: lines[cell]})
		}
	})
}

// driveOptimal sends single optimal cells closed-loop.
func (h *harness) driveOptimal(c *client, srv *server, t *tally, start time.Time, dur time.Duration) {
	closedLoop(start, dur, func(i int) {
		body := mustJSON(optimalRun(h.seed, i))
		t0 := time.Now()
		status, resp, err := c.do(http.MethodPost, "/v1/run", body)
		lat := time.Since(t0)
		lines, bad, why := checkLines(status, resp, err, 1)
		if t.record(lat, 1, bad, fmt.Sprintf("cell %d: %s", i, why)) {
			readRSS(t, srv)
		}
		if ok, _ := sampled(h.seed, i, sampleEvery, 1); ok && lines != nil {
			t.kept = append(t.kept, kept{i: i, line: lines[0]})
		}
	})
}

// table5 is the paper's Table 5 as one scenario: two B1 batteries, the ten
// test loads, and the four schedulers, exactly as EXPERIMENTS.md sends it.
func table5() spec.Scenario {
	loads := make([]spec.Load, len(load.PaperLoadNames))
	for i, name := range load.PaperLoadNames {
		loads[i] = spec.Load{Paper: name}
	}
	return spec.Scenario{
		Banks:   []spec.Bank{{Battery: &spec.Battery{Preset: "B1"}, Count: 2}},
		Loads:   loads,
		Solvers: []spec.Solver{{Name: "sequential"}, {Name: "roundrobin"}, {Name: "bestof"}, {Name: "optimal"}},
	}
}

// checkTable5 sends the Table 5 scenario and requires its 40 lifetimes to
// equal experiments.Table5, the repository's reproduction of the paper
// computed by a separate code path.
func checkTable5(c *client, rows []experiments.SchedulingRow) error {
	status, body, err := c.do(http.MethodPost, "/v1/sweep", mustJSON(service.SweepRequest{Scenario: table5()}))
	lines, bad, why := checkLines(status, body, err, 4*len(rows))
	if bad > 0 {
		return fmt.Errorf("table 5: %s", why)
	}
	for i, l := range lines {
		var res service.Result
		if err := json.Unmarshal(l, &res); err != nil {
			return fmt.Errorf("table 5 line %d: %w", i, err)
		}
		row := rows[i/4]
		want := []float64{row.Sequential, row.RoundRobin, row.BestOfTwo, row.Optimal}[i%4]
		if res.Load != row.Load || res.LifetimeMin != want {
			return fmt.Errorf("table 5 line %d: %s %s %v min, want %s %v min",
				i, res.Load, res.Solver, res.LifetimeMin, row.Load, want)
		}
	}
	return nil
}

// warmUp sends untimed traffic: the Table 5 check on grid workloads, then
// a few requests from an index range the timed phase never reaches.
func (h *harness) warmUp(c *client, rows []experiments.SchedulingRow) error {
	if h.w.grid != nil {
		if err := checkTable5(c, rows); err != nil {
			return err
		}
	}
	for i := warmBase; i < warmBase+2; i++ {
		want, path, body := 1, "/v1/run", mustJSON(optimalRun(h.seed, i))
		if h.w.grid != nil {
			want, path, body = gridCells, "/v1/sweep", mustJSON(service.SweepRequest{Scenario: h.w.grid(h.seed, i)})
		}
		status, body, err := c.do(http.MethodPost, path, body)
		if _, bad, why := checkLines(status, body, err, want); bad > 0 {
			return fmt.Errorf("warm-up: %s", why)
		}
	}
	return nil
}

// verify recomputes the kept answers in-process through the sweep layer
// and requires them byte-identical to what batserve served.
func (h *harness) verify(t *tally) error {
	for _, k := range t.kept {
		var sc spec.Scenario
		if h.w.grid != nil {
			sc = oneCell(h.w.grid(h.seed, k.i), k.cell)
		} else {
			sc = optimalRun(h.seed, k.i).Scenario()
		}
		lines, err := sweepLines(sc, nil)
		if err != nil {
			return fmt.Errorf("recompute request %d cell %d: %w", k.i, k.cell, err)
		}
		if !bytes.Equal(lines[0], k.line) {
			return fmt.Errorf("request %d cell %d: served %s, recomputed %s", k.i, k.cell, k.line, lines[0])
		}
	}
	return nil
}

// oneCell extracts cell c of a scenario, in the sweep's nested order (grid,
// bank, load, solver), as a one-cell scenario.
func oneCell(sc spec.Scenario, c int) spec.Scenario {
	ns, nl, nb := len(sc.Solvers), len(sc.Loads), len(sc.Banks)
	out := spec.Scenario{
		Solvers: []spec.Solver{sc.Solvers[c%ns]},
		Loads:   []spec.Load{sc.Loads[c/ns%nl]},
		Banks:   []spec.Bank{sc.Banks[c/ns/nl%nb]},
	}
	if len(sc.Grids) > 0 {
		out.Grids = []spec.Grid{sc.Grids[c/ns/nl/nb]}
	}
	return out
}
