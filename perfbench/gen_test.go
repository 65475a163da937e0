package main

import (
	"bytes"
	"testing"

	"batsched/internal/service"
)

// TestGeneratorDeterminism: a seed fixes every request byte, whatever the
// order of generation, and a new seed gives cells no earlier seed had.
func TestGeneratorDeterminism(t *testing.T) {
	gen := func(seed int64) [][]byte {
		var out [][]byte
		for i := 0; i < 3; i++ {
			out = append(out,
				mustJSON(coldGrid(seed, i)),
				mustJSON(optimalRun(seed, i)),
				mustJSON(deviceEvent(seed, i, 1, 2)))
		}
		return out
	}
	a, b := gen(7), gen(7)
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Fatalf("seed 7, input %d: bytes differ between two generations", i)
		}
	}
	// Generating out of order gives the same request.
	_ = coldGrid(7, 5)
	if !bytes.Equal(mustJSON(coldGrid(7, 0)), a[0]) {
		t.Fatal("request 0 depends on what was generated before it")
	}

	seen := map[string]bool{}
	for _, seed := range []int64{1, 2} {
		digests, _, err := service.CellDigests(service.SweepRequest{Scenario: coldGrid(seed, 0)})
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range digests {
			if seen[d] {
				t.Fatalf("seed %d repeats a cell digest", seed)
			}
			seen[d] = true
		}
	}
}

// TestInputsEvaluate: generated cells evaluate without a cell error, on
// every grid: no bank outlives its load.
func TestInputsEvaluate(t *testing.T) {
	check := func(what string, lines [][]byte, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		for _, l := range lines {
			if bytes.Contains(l, []byte(`"error":`)) {
				t.Fatalf("%s: %s", what, l)
			}
		}
	}
	for i := 0; i < 4; i++ {
		lines, err := sweepLines(coldGrid(11, i), nil)
		check("cold grid", lines, err)
	}
	for i := 0; i < 20; i++ {
		lines, err := sweepLines(optimalRun(11, i).Scenario(), nil)
		check("optimal cell", lines, err)
	}
}
