// Command perfbench is the repository's end-to-end benchmark. It starts a
// real batserve, drives it over loopback HTTP with one of two seeded
// workloads, checks every answer, and prints the end-to-end metrics. With
// -trace 1 it drives the workload for a shorter time and then runs the
// in-process layer ladder, printing the per-layer metrics instead.
//
// Run it from the repository root through run.sh, which builds batserve and
// this command into .bench_build:
//
//	bash perfbench/run.sh --workload grid-cold --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the line before it records the
// environment of the run. See README.md for the workloads and metrics.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"math"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"

	"batsched/internal/experiments"
	"batsched/internal/service"
	"batsched/internal/store"
)

func main() {
	name := flag.String("workload", "", "grid-cold or optimal-cells")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1 = per-layer metrics from the traced run and the ladder")
	bin := flag.String("batserve", ".bench_build/batserve", "batserve binary")
	work := flag.String("workdir", ".bench_build", "directory for run files (store, logs)")
	flag.Parse()

	w, ok := lookupWorkload(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	// Go 1.24 sizes GOMAXPROCS from the CPU affinity mask and ignores a
	// container's CPU quota, so the benchmark sets it explicitly, to the
	// same value for the generator and the server.
	procs := runtime.NumCPU()
	runtime.GOMAXPROCS(procs)

	if err := os.MkdirAll(*work, 0o755); err != nil {
		fatal(err)
	}
	dir, err := os.MkdirTemp(*work, "run-")
	if err != nil {
		fatal(err)
	}
	defer os.RemoveAll(dir)

	h := newHarness(w, *seed, *bin, dir, procs)
	dur := time.Duration(*seconds) * time.Second
	var res result
	var info map[string]any
	if *trace == 0 {
		res, info, err = h.e2e(dur)
	} else {
		res, info, err = h.tracedRun(dur, sizeFor(*seconds))
	}
	if err != nil {
		os.RemoveAll(dir)
		fatal(err)
	}
	env := provenance(*seed, procs)
	env["workload"] = w.name
	env["trace"] = *trace
	env["seconds"] = *seconds
	for k, v := range info {
		env[k] = v
	}
	runLine, err := json.Marshal(map[string]any{"run": env})
	if err != nil {
		fatal(err)
	}
	resLine, err := json.Marshal(res) // fails on a NaN or infinite metric
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(runLine))
	fmt.Println(string(resLine))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// drive runs the workload against the server for dur and returns the
// client-side tally, the time until the last answer arrived, the server's
// CPU ticks over that time and the share of it the hypervisor stole.
func (h *harness) drive(c *client, srv *server, dur time.Duration) (*tally, time.Duration, int64, float64, error) {
	t := &tally{}
	if !h.traced {
		t.mark = int64(float64(h.w.rssOpsPerS) * dur.Seconds() / 2)
	}
	cpu0, err0 := srv.cpuTicks()
	vm0, err1 := readVMTicks()
	start := time.Now()
	if h.w.grid != nil {
		h.driveGrid(c, srv, t, start, dur)
	} else {
		h.driveOptimal(c, srv, t, start, dur)
	}
	elapsed := time.Since(start)
	cpu1, err2 := srv.cpuTicks()
	vm1, err3 := readVMTicks()
	return t, elapsed, cpu1 - cpu0, vm1.stolen(vm0), errors.Join(err0, err1, err2, err3)
}

// live is a server that has been set up, warmed up and driven, and is
// still running.
type live struct {
	srv   *server
	c     *client
	setup []float64
	t     *tally
	// elapsed is the drive's length; serverTicks and selfTicks are the
	// CPU ticks of the server and of the generator over it. stolen is the
	// share of the VM's busy time the hypervisor took during the drive.
	elapsed                time.Duration
	serverTicks, selfTicks int64
	stolen                 float64
}

// start runs the common part of both modes: the Table 5 oracle, set-up,
// warm-up, then the timed drive.
func (h *harness) start(dur time.Duration) (*live, error) {
	var rows []experiments.SchedulingRow
	if h.w.grid != nil {
		var err error
		if rows, err = experiments.Table5(experiments.Table5Options{}); err != nil {
			return nil, err
		}
	}
	srv, setup, err := h.launch()
	if err != nil {
		return nil, err
	}
	s := &live{srv: srv, setup: setup, c: newClient(srv.base)}
	fail := func(err error) (*live, error) {
		s.c.close()
		return nil, errors.Join(err, srv.stop())
	}
	if err := h.warmUp(s.c, rows); err != nil {
		return fail(err)
	}
	self0, err1 := procCPUTicks(os.Getpid())
	s.t, s.elapsed, s.serverTicks, s.stolen, err = h.drive(s.c, srv, dur)
	self1, err2 := procCPUTicks(os.Getpid())
	if err := errors.Join(err, err1, err2); err != nil {
		return fail(err)
	}
	s.selfTicks = self1 - self0
	return s, nil
}

// stop stops the server and reports an unclean drain as an error.
func (s *live) stop() error {
	s.c.close()
	return s.srv.stop()
}

// e2e is the untraced run: it reports every end-to-end metric, each over
// the whole drive.
//
// On a shared host the hypervisor takes a varying share of the VM's CPU
// time (up to half, on the two-CPU VM the benchmark was tuned on), in
// bursts of milliseconds that stall the requests they overlap. The rate
// falls in proportion, so it is divided by 1 − the stolen share of the
// VM's busy time over the drive (/proc/stat). The p99 is made of the
// stalled requests and is multiplied by the same factor, which removes
// part of their stall; so is the median, unless the workload's requests
// are short enough that the median request escapes the bursts. With no
// steal every figure is as observed; the run record keeps the plain
// figures and the share. setup_s is the fastest of the starts, the one
// no burst slowed.
func (h *harness) e2e(dur time.Duration) (result, map[string]any, error) {
	s, err := h.start(dur)
	if err != nil {
		return result{}, nil, err
	}
	scraped, scrapeErr := scrape(s.c.hc, s.srv.base)
	if err := errors.Join(scrapeErr, s.stop()); err != nil {
		return result{}, nil, err
	}
	t := s.t
	var problems []string
	if err := h.verify(t); err != nil {
		problems = append(problems, err.Error())
	}
	if t.rss == 0 {
		problems = append(problems, fmt.Sprintf("the drive attempted %d operations, too few to reach the RSS mark of %d", t.attempted, t.mark))
	}
	lat := sorted(t.lat)
	p99, err := tailQuantile(lat, 0.99)
	if err != nil {
		problems = append(problems, err.Error())
	}
	ops := float64(t.ops)
	plain := map[string]float64{
		"ops_per_s":      ops / s.elapsed.Seconds(),
		"latency_p50_ms": quantile(lat, 0.5),
		"latency_p99_ms": p99,
	}
	left := 1 - s.stolen
	p50 := plain["latency_p50_ms"]
	if !h.w.shortRequests {
		p50 *= left
	}
	m, err := withUnits(map[string]float64{
		"setup_s":              slices.Min(s.setup),
		"ops_per_s":            plain["ops_per_s"] / left,
		"latency_p50_ms":       p50,
		"latency_p99_ms":       plain["latency_p99_ms"] * left,
		"server_cpu_us_per_op": float64(s.serverTicks) / clockTicks * 1e6 / ops,
		"server_peak_rss_mb":   t.rss,
		"success_ratio":        float64(t.attempted-t.failed) / float64(t.attempted),
	}, e2eMetrics)
	if err != nil {
		return result{}, nil, err
	}
	res, info, err := h.result(s, scraped, m, problems)
	info["plain"] = plain
	return res, info, err
}

// result assembles a run's last line and its record; a run is correct when
// no operation failed and no check found a problem.
func (h *harness) result(s *live, scraped map[string]float64, m map[string]metric, problems []string) (result, map[string]any, error) {
	problems = append(append([]string(nil), s.t.problems...), problems...)
	info := h.info(s, scraped)
	info["problems"] = problems
	return result{
		Correct:   len(problems) == 0 && s.t.failed == 0,
		Attempted: s.t.attempted,
		Failed:    s.t.failed,
		Metrics:   m,
	}, info, nil
}

// info records the run's load shape, sample counts, the generator's CPU
// and the stolen share next to the result.
func (h *harness) info(s *live, scraped map[string]float64) map[string]any {
	return map[string]any{
		"stolen_share_drive": s.stolen,
		"clients":            clients,
		"requests":           len(s.t.lat),
		"rss_mark_ops":       s.t.mark,
		"setup_samples":      s.setup,
		"generator_cpu_s":    float64(s.selfTicks) / clockTicks,
		"server_failures":    failureCounts(scraped),
	}
}

// failureCounts picks the failure counters out of a /metrics scrape.
func failureCounts(scraped map[string]float64) map[string]float64 {
	out := map[string]float64{
		"http.responses_4xx":  0,
		"http.responses_5xx":  0,
		"http.shed_total":     scraped["batserve_requests_shed_total"],
		"store.append_errors": scraped["batserve_store_append_errors_total"],
	}
	for series, v := range scraped {
		if !strings.HasPrefix(series, "batserve_http_request_seconds_count{") {
			continue
		}
		switch {
		case strings.Contains(series, `status="4`):
			out["http.responses_4xx"] += v
		case strings.Contains(series, `status="5`):
			out["http.responses_5xx"] += v
		}
	}
	return out
}

// routeQuantile estimates a quantile of one route's 200 responses from the
// cumulative buckets of batserve_http_request_seconds.
func routeQuantile(scraped map[string]float64, route string, q float64) float64 {
	prefix := fmt.Sprintf(`batserve_http_request_seconds_bucket{route=%q,status="200",le="`, route)
	type bucket struct{ le, cum float64 }
	var bs []bucket
	for series, v := range scraped {
		rest, ok := strings.CutPrefix(series, prefix)
		if !ok {
			continue
		}
		le := math.Inf(1)
		if s := strings.TrimSuffix(rest, `"}`); s != "+Inf" {
			fmt.Sscan(s, &le)
		}
		bs = append(bs, bucket{le, v})
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	if len(bs) == 0 || bs[len(bs)-1].cum == 0 {
		return 0
	}
	rank := q * bs[len(bs)-1].cum
	lo, prev := 0.0, 0.0
	for _, b := range bs {
		if b.cum >= rank && b.cum > prev {
			if math.IsInf(b.le, 1) {
				return lo
			}
			return lo + (b.le-lo)*(rank-prev)/(b.cum-prev)
		}
		lo, prev = b.le, b.cum
	}
	return lo
}

// tracedRun is the traced run: a shorter drive for the HTTP-side layer
// metrics, the ladder differential requests, then the in-process ladder.
func (h *harness) tracedRun(dur time.Duration, size ladderSize) (result, map[string]any, error) {
	h.traced = true
	s, err := h.start(dur * 3 / 10)
	if err != nil {
		return result{}, nil, err
	}
	l := &ladder{seed: h.seed, size: size, m: map[string]float64{}}
	for i := 0; i < size.grids; i++ {
		l.grids = append(l.grids, coldGrid(h.seed, i))
	}
	for i := 0; i < diffRequests; i++ {
		status, body, err := s.c.do(http.MethodPost, "/v1/sweep", mustJSON(service.SweepRequest{Scenario: l.grids[i]}))
		if _, bad, why := checkLines(status, body, err, gridCells); bad > 0 {
			l.errs = append(l.errs, fmt.Errorf("differential request %d: %s", i, why))
		}
		l.bodies = append(l.bodies, body)
	}
	scraped, scrapeErr := scrape(s.c.hc, s.srv.base)
	if err := errors.Join(scrapeErr, s.stop()); err != nil {
		return result{}, nil, err
	}
	if err := h.verify(s.t); err != nil {
		l.errs = append(l.errs, err)
	}

	// store.replay_s: reopen the file the server just closed, as a restart
	// would.
	var replays []float64
	for k := 0; k < 3; k++ {
		t0 := time.Now()
		st, err := store.Open(h.store)
		if err != nil {
			return result{}, nil, err
		}
		replays = append(replays, time.Since(t0).Seconds())
		if err := st.Close(); err != nil {
			return result{}, nil, err
		}
	}
	l.m["store.replay_s"] = median(replays)

	if err := l.run(); err != nil {
		return result{}, nil, err
	}

	t := s.t
	ops := float64(t.ops)
	opsPerReq := float64(t.attempted) / float64(len(t.lat))
	topRung := l.storeP50Ms
	if h.w.grid == nil {
		topRung = l.searchP50Ms
	}
	l.m["http.tax_us_per_op"] = (median(t.lat) - topRung) * 1e3 / opsPerReq
	l.m["http.server_ms_p50"] = routeQuantile(scraped, h.w.route, 0.5) * 1e3
	for k, v := range failureCounts(scraped) {
		l.m[k] = v
	}
	l.m["loadgen.cpu_us_per_op"] = float64(s.selfTicks) / clockTicks * 1e6 / ops

	m, err := withUnits(l.m, layerMetrics)
	if err != nil {
		return result{}, nil, err
	}
	var problems []string
	for _, e := range l.errs {
		problems = append(problems, e.Error())
	}
	return h.result(s, scraped, m, problems)
}

// withUnits attaches the units of a metric list to measured values; a
// listed metric that was not measured is an error.
func withUnits(values map[string]float64, list []struct{ name, unit string }) (map[string]metric, error) {
	m := map[string]metric{}
	for _, lm := range list {
		v, ok := values[lm.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", lm.name)
		}
		m[lm.name] = metric{v, lm.unit}
	}
	return m, nil
}

// provenance records what the numbers depend on: machine size, toolchain,
// source, seed, and the GOMAXPROCS given to server and generator.
func provenance(seed int64, procs int) map[string]any {
	// Only a git work tree rooted here names the commit; the benchmark also
	// runs from plain source trees.
	commit := "unknown"
	out, err := exec.Command("git", "rev-parse", "--show-toplevel", "HEAD").Output()
	wd, _ := os.Getwd()
	if f := strings.Fields(string(out)); err == nil && len(f) == 2 && f[0] == wd {
		commit = f[1]
	}
	return map[string]any{
		"nproc":                runtime.NumCPU(),
		"go":                   runtime.Version(),
		"commit":               commit,
		"source_sha256":        sourceDigest("."),
		"seed":                 seed,
		"gomaxprocs_server":    procs,
		"gomaxprocs_generator": runtime.GOMAXPROCS(0),
	}
}

// sourceDigest hashes the repository's Go sources and go.mod files, so a
// report identifies the code it measured even outside a git checkout.
func sourceDigest(root string) string {
	var paths []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && p != root {
			return filepath.SkipDir
		}
		if strings.HasSuffix(p, ".go") || d.Name() == "go.mod" {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	hash := sha256.New()
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(hash, "%s %d\n", filepath.ToSlash(p), len(b))
		hash.Write(b)
	}
	return hex.EncodeToString(hash.Sum(nil))
}
