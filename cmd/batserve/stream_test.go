package main

import (
	"bufio"
	"bytes"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestSweepFlushesReadyLinesBeforeWaiting: /v1/sweep flushes once per run
// of ready lines, and a run always ends before the stream waits on an
// unfinished cell. With cell 1 held on a gate, the client must receive
// line 0 while the gate is still shut. The job path consumes the same
// line stream, ignores the flush hint, and must produce the same bytes.
func TestSweepFlushesReadyLinesBeforeWaiting(t *testing.T) {
	registerHTTPGateSolver()
	gate := make(chan struct{})
	var openGate sync.Once
	release := func() { openGate.Do(func() { close(gate) }) }
	defer release()
	setHTTPGate(gate, make(chan struct{}, 8))
	defer setHTTPGate(nil, nil)

	const scenario = `{
		"banks":   [{"battery": {"preset": "B1"}, "count": 2}],
		"loads":   [{"paper": "ILs alt"}],
		"solvers": ["sequential", "test-gate-http"]
	}`
	ts := newTestServer(t)
	type first struct {
		line []byte
		rest io.ReadCloser
		r    *bufio.Reader
		err  error
	}
	got := make(chan first, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/sweep", "application/json",
			strings.NewReader(`{"scenario":`+scenario+`,"workers":2}`))
		if err != nil {
			got <- first{err: err}
			return
		}
		r := bufio.NewReader(resp.Body)
		line, err := r.ReadBytes('\n')
		got <- first{line: line, rest: resp.Body, r: r, err: err}
	}()
	var f first
	select {
	case f = <-got:
	case <-time.After(10 * time.Second):
		release()
		t.Fatal("line 0 was not delivered while cell 1 waited on the gate")
	}
	if f.err != nil {
		t.Fatal(f.err)
	}
	defer f.rest.Close()
	if !bytes.Contains(f.line, []byte(`"solver":"sequential"`)) {
		t.Fatalf("line 0 = %s", f.line)
	}
	release()
	tail, err := io.ReadAll(f.r)
	if err != nil {
		t.Fatal(err)
	}
	body := append(f.line, tail...)
	if n := bytes.Count(body, []byte("\n")); n != 2 {
		t.Fatalf("%d lines, want 2:\n%s", n, body)
	}

	// A fresh server (empty store) so the job evaluates both cells itself.
	setHTTPGate(nil, nil)
	fresh := newTestServer(t)
	sub := submitJob(t, fresh, `{"scenario":`+scenario+`}`)
	pollJobDone(t, fresh, sub.ID)
	resp, jobBody := getBody(t, fresh.URL+"/v1/jobs/"+sub.ID+"/results")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("job results status %d: %s", resp.StatusCode, jobBody)
	}
	if !bytes.Equal(jobBody, body) {
		t.Fatalf("job results differ from the streamed sweep:\njob:\n%s\nsweep:\n%s", jobBody, body)
	}
}
