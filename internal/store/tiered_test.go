package store

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// fakeRemote is a RemoteTier over a plain map, recording every call.
type fakeRemote struct {
	mu      sync.Mutex
	cells   map[string]json.RawMessage
	fetches int
	pushes  map[string]json.RawMessage
}

func newFakeRemote() *fakeRemote {
	return &fakeRemote{cells: make(map[string]json.RawMessage), pushes: make(map[string]json.RawMessage)}
}

func (f *fakeRemote) FetchCells(digests []string, lines []json.RawMessage) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.fetches++
	filled := 0
	for i, d := range digests {
		if lines[i] != nil {
			continue
		}
		if line, ok := f.cells[d]; ok {
			lines[i] = line
			filled++
		}
	}
	return filled
}

func (f *fakeRemote) PushCell(digest string, line json.RawMessage) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.pushes[digest] = append(json.RawMessage(nil), line...)
}

func line(i int) json.RawMessage {
	return json.RawMessage(fmt.Sprintf(`{"lifetime_min":%d}`, i))
}

func TestTieredLocalFirst(t *testing.T) {
	local, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	remote := newFakeRemote()
	tiered := NewTiered(local, remote)
	if err := tiered.PutCell("d1", line(1)); err != nil {
		t.Fatal(err)
	}
	got, ok := tiered.GetCell("d1")
	if !ok || string(got) != string(line(1)) {
		t.Fatalf("GetCell(d1) = %q, %v", got, ok)
	}
	if remote.fetches != 0 {
		t.Fatalf("local hit reached the remote tier (%d fetches)", remote.fetches)
	}
	// The put was offered to the remote tier for owner replication.
	if string(remote.pushes["d1"]) != string(line(1)) {
		t.Fatalf("PutCell did not push to the remote tier: %q", remote.pushes["d1"])
	}
}

func TestTieredRemoteHitWritesThrough(t *testing.T) {
	local, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	remote := newFakeRemote()
	remote.cells["d2"] = line(2)
	tiered := NewTiered(local, remote)

	got, ok := tiered.GetCell("d2")
	if !ok || string(got) != string(line(2)) {
		t.Fatalf("GetCell(d2) = %q, %v", got, ok)
	}
	// Write-through: the next probe is a local hit, no second fetch.
	if _, ok := local.PeekCell("d2"); !ok {
		t.Fatal("remote hit was not written through to the local tier")
	}
	if _, ok := tiered.GetCell("d2"); !ok {
		t.Fatal("second GetCell missed")
	}
	if remote.fetches != 1 {
		t.Fatalf("expected exactly 1 remote fetch, got %d", remote.fetches)
	}
	tc := tiered.TierCounters()
	if tc.RemoteHits != 1 {
		t.Fatalf("RemoteHits = %d, want 1", tc.RemoteHits)
	}
}

func TestTieredLookupCellsMergesTiers(t *testing.T) {
	local, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	remote := newFakeRemote()
	tiered := NewTiered(local, remote)
	if err := local.PutCell("a", line(1)); err != nil {
		t.Fatal(err)
	}
	remote.cells["b"] = line(2)
	// "c" exists nowhere.
	lines, hits := tiered.LookupCells([]string{"a", "b", "c"})
	if hits != 2 {
		t.Fatalf("hits = %d, want 2", hits)
	}
	if string(lines[0]) != string(line(1)) || string(lines[1]) != string(line(2)) || lines[2] != nil {
		t.Fatalf("lines = %q", lines)
	}
	if _, ok := local.PeekCell("b"); !ok {
		t.Fatal("bulk remote hit was not written through")
	}
	tc := tiered.TierCounters()
	if tc.RemoteHits != 1 || tc.RemoteMisses != 1 {
		t.Fatalf("tier counters = %+v, want 1 hit / 1 miss", tc)
	}
}

// TestTieredDisarmedPassThrough pins the single-node configuration: a
// Tiered store with a nil remote behaves exactly like its local tier.
func TestTieredDisarmedPassThrough(t *testing.T) {
	local, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	tiered := NewTiered(local, nil)
	if err := tiered.PutCell("d", line(9)); err != nil {
		t.Fatal(err)
	}
	if _, ok := tiered.GetCell("d"); !ok {
		t.Fatal("disarmed GetCell missed a local cell")
	}
	if _, ok := tiered.GetCell("missing"); ok {
		t.Fatal("disarmed GetCell fabricated a cell")
	}
	lines, hits := tiered.LookupCells([]string{"d", "missing"})
	if hits != 1 || lines[0] == nil || lines[1] != nil {
		t.Fatalf("disarmed LookupCells = %q (%d hits)", lines, hits)
	}
	if tc := tiered.TierCounters(); tc != (TierCounters{}) {
		t.Fatalf("disarmed tier counters moved: %+v", tc)
	}
}

// TestTieredExposesReplayCounters: a wrapped file store's quarantine
// counter must stay visible through the Backend interface, or /metrics
// would lose it the moment batserve holds a Tiered instead of the concrete
// *Store.
func TestTieredExposesReplayCounters(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "results.ndjson")
	// One good cell record, then a line of the retired whole-request format
	// and a corrupt line, both quarantined.
	good, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := good.PutCell("d1", line(1)); err != nil {
		t.Fatal(err)
	}
	if err := good.Close(); err != nil {
		t.Fatal(err)
	}
	legacy := `{"digest":"old-scheme","results":[{"lifetime_min":1}]}` + "\n"
	corrupt := "{not json}\n"
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(legacy + corrupt); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	reopened, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	var backend Backend = NewTiered(reopened, newFakeRemote())
	c := backend.Counters()
	if c.Quarantined != 2 {
		t.Fatalf("Quarantined through Backend = %d, want 2", c.Quarantined)
	}
	if c.Entries != 1 {
		t.Fatalf("Entries = %d, want 1", c.Entries)
	}
}
