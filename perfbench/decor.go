package main

import (
	"encoding/json"
	"sync/atomic"
	"time"

	"batsched/internal/core"
	"batsched/internal/store"
	"batsched/internal/sweep"
)

// timedBackend decorates a store.Backend: it times the two calls the sweep
// path makes per request and per evaluated cell, counts what passes
// through, and forwards every call and every result unchanged.
type timedBackend struct {
	store.Backend
	lookupNs, lookups, probed, hits atomic.Int64
	putNs, puts                     atomic.Int64
}

func (b *timedBackend) LookupCells(digests []string) ([]json.RawMessage, int) {
	t0 := time.Now()
	lines, hits := b.Backend.LookupCells(digests)
	b.lookupNs.Add(int64(time.Since(t0)))
	b.lookups.Add(1)
	b.probed.Add(int64(len(digests)))
	b.hits.Add(int64(hits))
	return lines, hits
}

func (b *timedBackend) PutCell(digest string, line json.RawMessage) error {
	t0 := time.Now()
	err := b.Backend.PutCell(digest, line)
	b.putNs.Add(int64(time.Since(t0)))
	b.puts.Add(1)
	return err
}

// compileFunc is the shape of sweep.Options.Compile.
type compileFunc = func(sweep.Bank, sweep.LoadCase, sweep.GridSpec) (*core.Compiled, error)

// compileTimer decorates a sweep compile hook with a timer and a counter.
type compileTimer struct{ ns, n atomic.Int64 }

func (c *compileTimer) wrap(next compileFunc) compileFunc {
	return func(b sweep.Bank, lc sweep.LoadCase, g sweep.GridSpec) (*core.Compiled, error) {
		t0 := time.Now()
		out, err := next(b, lc, g)
		c.ns.Add(int64(time.Since(t0)))
		c.n.Add(1)
		return out, err
	}
}

// plainCompile is the compile the sweep layer uses when no hook is set.
func plainCompile(b sweep.Bank, lc sweep.LoadCase, g sweep.GridSpec) (*core.Compiled, error) {
	return core.Compile(b.Batteries, lc.Load, g.StepMin, g.UnitAmpMin)
}
