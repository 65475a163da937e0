package store

import (
	"encoding/json"
	"sync/atomic"
)

// RemoteTier is the peer-facing half of a tiered store: it can fill cells
// the local tier misses from other nodes and replicate freshly computed
// cells toward their ring owner. The cluster layer (internal/cluster)
// implements it over the batserve peer API; the store package only knows
// the shape, so it never imports HTTP or membership machinery.
type RemoteTier interface {
	// FetchCells fills nil slots of lines (aligned with digests) from
	// remote peers and returns how many it filled. Implementations decide
	// which peers to ask (ring owner, gossip hints), enforce their own
	// timeouts and circuit breakers, and must leave a slot nil rather than
	// ever filling it with partial bytes. Must be safe for concurrent use.
	FetchCells(digests []string, lines []json.RawMessage) int
	// PushCell offers a locally stored cell to the rest of the cluster
	// (typically: replicate it to its ring owner when that is another
	// node). Best-effort and asynchronous; errors are the implementation's
	// to count, never the caller's to handle.
	PushCell(digest string, line json.RawMessage)
}

// TierCounters snapshots the remote tier's effectiveness: how many cells
// peers served that the local store missed, and how many remote probes
// failed outright (timeouts, open breakers — counted by the tier itself as
// RPC errors; here only whole-batch zero-fills are visible).
type TierCounters struct {
	// RemoteHits counts cells served by the remote tier; RemoteMisses
	// counts cells the remote tier was asked for and could not fill.
	RemoteHits, RemoteMisses int64
	// WriteThroughErrors counts remote lines that failed to persist into
	// the local tier (the line was still served; only future locality was
	// lost).
	WriteThroughErrors int64
}

// Tiered is a Backend that probes a local Backend first and falls back to a
// RemoteTier for the misses, writing remote hits through into the local
// tier so a cell crosses the network at most once per node. Puts land
// locally and are offered to the remote tier (which replicates them to
// their owner best-effort). The whole-request index stays strictly local:
// request digests are a per-node serving convenience, while cells are the
// cluster-wide content-addressed unit.
//
// With a nil RemoteTier a Tiered store is a transparent pass-through — the
// single-node configuration with clustering compiled in but disarmed — and
// every method simply delegates, so the hot path costs one nil check.
type Tiered struct {
	local  Backend
	remote RemoteTier

	remoteHits   atomic.Int64
	remoteMisses atomic.Int64
	wtErrors     atomic.Int64
}

// NewTiered wraps local with a remote tier. remote may be nil (disarmed).
func NewTiered(local Backend, remote RemoteTier) *Tiered {
	return &Tiered{local: local, remote: remote}
}

// Local exposes the underlying local backend — the peer API serves from it
// directly so one node's remote probe can never cascade into another
// remote probe.
func (t *Tiered) Local() Backend { return t.local }

// GetRequest delegates to the local tier: whole-request indexes are
// node-local.
func (t *Tiered) GetRequest(digest string) ([]json.RawMessage, bool) {
	return t.local.GetRequest(digest)
}

// PutRequest delegates to the local tier.
func (t *Tiered) PutRequest(digest string, cellDigests []string, lines []json.RawMessage) error {
	return t.local.PutRequest(digest, cellDigests, lines)
}

// GetCell probes the local tier, then the remote one. A remote hit is
// written through into the local tier.
func (t *Tiered) GetCell(digest string) (json.RawMessage, bool) {
	if line, ok := t.local.GetCell(digest); ok {
		return line, ok
	}
	if t.remote == nil {
		return nil, false
	}
	lines := []json.RawMessage{nil}
	if t.remote.FetchCells([]string{digest}, lines) == 0 {
		t.remoteMisses.Add(1)
		return nil, false
	}
	t.remoteHits.Add(1)
	t.writeThrough(digest, lines[0])
	return lines[0], true
}

// PeekCell probes the local tier only: it is the service's cheap re-probe
// after an in-flight wait, and must never turn into a network round trip.
func (t *Tiered) PeekCell(digest string) (json.RawMessage, bool) {
	return t.local.PeekCell(digest)
}

// LookupCells is the sweep runner's bulk probe: one local pass, then one
// remote pass over the local misses. Remote hits are written through into
// the local tier and counted into the local per-cell hit ledger's remote
// sibling (TierCounters), so the incremental-sweep accounting separates
// "had it here" from "a peer had it".
func (t *Tiered) LookupCells(digests []string) ([]json.RawMessage, int) {
	lines, hits := t.local.LookupCells(digests)
	if t.remote == nil || hits == len(digests) {
		return lines, hits
	}
	filled := t.remote.FetchCells(digests, lines)
	if filled > 0 {
		t.remoteHits.Add(int64(filled))
		for i, d := range digests {
			if lines[i] != nil {
				// Only write through what the remote pass added; local hits
				// are already present. A second put of a local hit would be
				// a harmless no-op, but skipping it avoids n lock rounds.
				if _, had := t.local.PeekCell(d); !had {
					t.writeThrough(d, lines[i])
				}
			}
		}
	}
	t.remoteMisses.Add(int64(len(digests) - hits - filled))
	return lines, hits + filled
}

// PutCell stores the line locally and offers it to the remote tier, which
// replicates it toward its ring owner best-effort.
func (t *Tiered) PutCell(digest string, line json.RawMessage) error {
	if err := t.local.PutCell(digest, line); err != nil {
		return err
	}
	if t.remote != nil {
		t.remote.PushCell(digest, line)
	}
	return nil
}

// writeThrough persists a remote line into the local tier. Failures
// (degraded local store) only cost future locality, never the lookup.
func (t *Tiered) writeThrough(digest string, line json.RawMessage) {
	if err := t.local.PutCell(digest, line); err != nil {
		t.wtErrors.Add(1)
	}
}

// Counters snapshots the local tier's counters — including the replay
// health counter (Quarantined) that must stay visible
// through the wrapper.
func (t *Tiered) Counters() Counters { return t.local.Counters() }

// TierCounters snapshots the remote tier's effectiveness counters.
func (t *Tiered) TierCounters() TierCounters {
	return TierCounters{
		RemoteHits:         t.remoteHits.Load(),
		RemoteMisses:       t.remoteMisses.Load(),
		WriteThroughErrors: t.wtErrors.Load(),
	}
}

// Degraded reports the local tier's write circuit.
func (t *Tiered) Degraded() bool { return t.local.Degraded() }

// Close closes the local tier. The remote tier belongs to the cluster
// layer, which owns its lifecycle.
func (t *Tiered) Close() error { return t.local.Close() }
