package main

import (
	"bytes"
	"context"
	"testing"

	"batsched/internal/service"
	"batsched/internal/store"
	"batsched/internal/sweep"
)

// TestDecoratorsPassThrough: the timing decorators return exactly what the
// decorated calls return, and a service on a timed store answers byte for
// byte like one on the bare store.
func TestDecoratorsPassThrough(t *testing.T) {
	sc := coldGrid(5, 0)
	plain, err := sweepLines(sc, nil)
	if err != nil {
		t.Fatal(err)
	}
	var ct compileTimer
	timed, err := sweepLines(sc, ct.wrap(plainCompile))
	if err != nil {
		t.Fatal(err)
	}
	if len(timed) != len(plain) || ct.n.Load() == 0 {
		t.Fatalf("timed compile: %d lines, %d compiles", len(timed), ct.n.Load())
	}
	for i := range plain {
		if !bytes.Equal(plain[i], timed[i]) {
			t.Fatalf("line %d differs under the compile timer", i)
		}
	}
	bank := sweep.Bank{Name: "b", Batteries: nil}
	want, wantErr := plainCompile(bank, sweep.LoadCase{}, sweep.PaperGrid())
	got, gotErr := ct.wrap(plainCompile)(bank, sweep.LoadCase{}, sweep.PaperGrid())
	if got != want || (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("compile timer changed the result: %v %v vs %v %v", got, gotErr, want, wantErr)
	}

	run := func(st store.Backend) [][]byte {
		lines, err := serviceLines(context.Background(), service.New(service.Options{MaxConcurrent: 1, Store: st}), sc)
		if err != nil {
			t.Fatal(err)
		}
		return lines
	}
	bare, err := store.Open("")
	if err != nil {
		t.Fatal(err)
	}
	inner, err := store.Open("")
	if err != nil {
		t.Fatal(err)
	}
	tb := &timedBackend{Backend: inner}
	a, b := run(bare), run(tb)
	for i := range a {
		if !bytes.Equal(a[i], b[i]) || !bytes.Equal(a[i], plain[i]) {
			t.Fatalf("line %d differs on the timed store", i)
		}
	}
	digests, _, err := service.CellDigests(service.SweepRequest{Scenario: sc})
	if err != nil {
		t.Fatal(err)
	}
	wantLines, wantHits := bare.LookupCells(digests)
	gotLines, gotHits := tb.LookupCells(digests)
	if gotHits != wantHits || gotHits != len(digests) {
		t.Fatalf("timed lookup: %d hits, bare %d, want %d", gotHits, wantHits, len(digests))
	}
	for i := range wantLines {
		if !bytes.Equal(wantLines[i], gotLines[i]) {
			t.Fatalf("timed lookup line %d differs", i)
		}
	}
	if tb.puts.Load() != int64(len(digests)) || tb.hits.Load() != int64(len(digests)) {
		t.Fatalf("timed store counted %d puts and %d hits, want %d each", tb.puts.Load(), tb.hits.Load(), len(digests))
	}
}
