package store

import "encoding/json"

// Backend is the behavioral surface of a content-addressed result store:
// per-cell and whole-request probes, immutable puts, and the operational
// counters the serving layer exposes on /metrics. The concrete *Store (the
// memory/file store) is the base implementation; Tiered composes a local
// Backend with a remote peer tier. Everything above the store — the
// evaluation service, the job manager, batserve — speaks Backend, so a
// wrapped store is indistinguishable from a bare one.
//
// Counters is part of the interface on purpose: a store wrapped in a tier
// must not hide its replay-health counter (quarantined lines) from the
// metrics endpoint just because the caller holds the wrapper instead of the
// concrete type.
type Backend interface {
	// GetRequest returns the ordered result lines stored under a
	// whole-request digest, counting a request-level hit or miss.
	GetRequest(digest string) ([]json.RawMessage, bool)
	// PutRequest records the whole-request index entry digest → cellDigests
	// and stores any cell lines not held yet (lines aligned with
	// cellDigests; nil when every cell is known present).
	PutRequest(digest string, cellDigests []string, lines []json.RawMessage) error
	// GetCell returns the line stored under one cell digest, counting a
	// per-cell hit or miss.
	GetCell(digest string) (json.RawMessage, bool)
	// PeekCell is GetCell without advancing the hit/miss counters — the
	// internal re-probe used after waiting out another sweep's in-flight
	// evaluation.
	PeekCell(digest string) (json.RawMessage, bool)
	// LookupCells probes every digest at once, returning stored lines
	// aligned with the input (nil = absent) plus the hit count.
	LookupCells(digests []string) ([]json.RawMessage, int)
	// PutCell stores one immutable result line under a cell digest.
	PutCell(digest string, line json.RawMessage) error
	// Counters snapshots the store's effectiveness and health counters,
	// including the replay counter (Quarantined) of
	// whatever file-backed tier sits underneath.
	Counters() Counters
	// Degraded reports whether the write circuit is open (read-only mode).
	Degraded() bool
	// Close releases the backend; it must not be used afterwards.
	Close() error
}

// Compile-time conformance: the concrete store and the tiered wrapper both
// satisfy Backend.
var (
	_ Backend = (*Store)(nil)
	_ Backend = (*Tiered)(nil)
)
