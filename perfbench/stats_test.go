package main

import "testing"

func ramp(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

// TestTailQuantileNeedsTenBeyond: a p99 needs 1000 samples, so that ten lie
// beyond it; 999 are refused.
func TestTailQuantileNeedsTenBeyond(t *testing.T) {
	if _, err := tailQuantile(ramp(999), 0.99); err == nil {
		t.Fatal("p99 of 999 samples accepted")
	}
	v, err := tailQuantile(ramp(1000), 0.99)
	if err != nil {
		t.Fatal(err)
	}
	if v != 990 {
		t.Fatalf("p99 of 1..1000 = %v, want 990 (ten samples beyond it)", v)
	}
	if _, err := tailQuantile(ramp(100), 0.9); err != nil {
		t.Fatalf("p90 of 100 samples: %v", err)
	}
}
