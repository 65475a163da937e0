package core

import (
	"sync"

	"batsched/internal/battery"
	"batsched/internal/dkibam"
)

// The process-wide discretization table holds at most maxInterned entries
// and maxInternedSteps recovery-time entries in all (8 bytes each, so at
// most 16 MiB of tables), whatever bound the caller puts on its own cache
// of compiled artifacts. Real workloads use a handful of battery types on
// a handful of grids, a few thousand steps each; the bounds only matter
// for a stream of ever-new batteries or very fine grids, which then refill
// the table from empty instead of growing it without limit. A single
// table above maxInternedSteps is never kept: each call builds its own.
const (
	maxInterned      = 256
	maxInternedSteps = 2 << 20
)

// discKey is everything a discretization depends on. Params includes the
// Label: a Discretization carries its Params, so two spellings of the same
// physics with different labels must not hand each other their names.
type discKey struct {
	p                   battery.Params
	stepMin, unitAmpMin float64
}

var interned struct {
	mu    sync.Mutex
	m     map[discKey]*dkibam.Discretization
	steps int // total len(RecovTime) over m
}

// discretize returns the shared discretization of battery p on the grid
// (stepMin, unitAmpMin), building it on first use. A Discretization is
// immutable, so every Compiled artifact on the same battery and grid can
// share one recovery-time table — within a bank and across cells, requests
// and sessions. Failures are not cached: the error path rebuilds and
// reports every time.
func discretize(p battery.Params, stepMin, unitAmpMin float64) (*dkibam.Discretization, error) {
	k := discKey{p, stepMin, unitAmpMin}
	interned.mu.Lock()
	d, ok := interned.m[k]
	interned.mu.Unlock()
	if ok {
		return d, nil
	}
	d, err := dkibam.Discretize(p, stepMin, unitAmpMin)
	if err != nil {
		return nil, err
	}
	interned.mu.Lock()
	defer interned.mu.Unlock()
	// A concurrent caller may have built the same table meanwhile; keep
	// the first so equal inputs always share one pointer.
	if first, ok := interned.m[k]; ok {
		return first, nil
	}
	steps := len(d.RecovTime)
	if steps > maxInternedSteps {
		return d, nil
	}
	if interned.m == nil || len(interned.m) >= maxInterned || interned.steps+steps > maxInternedSteps {
		interned.m = make(map[discKey]*dkibam.Discretization)
		interned.steps = 0
	}
	interned.m[k] = d
	interned.steps += steps
	return d, nil
}
