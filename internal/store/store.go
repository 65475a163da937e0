// Package store is a content-addressed result store whose unit is a single
// scenario cell: one NDJSON result line keyed by the cell's content digest
// (see service.CellDigests for the keying rule). On top of the cell map it
// keeps a whole-request index — request digest → ordered cell-digest list —
// so an identical resubmission is still served in one probe, byte-identical
// to the run that produced it.
//
// Cell granularity is what makes overlapping sweeps incremental: the
// paper's experiment grids overlap heavily (change one load in a 200-cell
// grid and 180 cells are unchanged), and a store keyed by whole requests
// re-evaluates everything on any change. Here a new sweep reuses every cell
// any earlier sweep already computed and evaluates only the rest.
//
// Entries are immutable — a cell digest maps to exactly one byte sequence —
// and the optional append-only file backend survives restarts. The file
// layer is built for an unhealthy world:
//
//   - Every record carries a CRC-32C checksum over its content, so
//     corruption anywhere in the file — not just a torn tail — is detected
//     on replay. Corrupt complete lines are quarantined (skipped and
//     counted, the rest of the file still loads); only the newline-less
//     tail of a crash mid-append is truncated away.
//   - Transient append errors are retried with capped exponential backoff
//     plus jitter. A put that exhausts its retries trips a circuit breaker:
//     the store enters a degraded read-only mode where reads and the whole
//     evaluation path keep working, puts fail fast with ErrDegraded, and
//     after a cooldown the next put probes the backend (half-open) and
//     closes the breaker on success. The mode is visible in Counters.
//   - A partial write left by an exhausted retry sequence is repaired on
//     the next successful append by terminating the fragment with a
//     newline, turning it into one quarantinable line instead of letting
//     the new record glue onto it.
//
// Every line is verified on replay: a line with no "crc" field checks
// against zero, so a damaged key cannot switch verification off, and lines
// of retired formats (unchecksummed records, pre-cell whole-request
// records) are quarantined like any other unrecognizable line.
package store

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
	"unicode/utf8"

	"batsched/internal/obs"
)

// ErrDegraded is returned by puts while the write circuit is open: the
// backend failed persistently, the store serves reads only, and new results
// are not cached until a cooldown probe succeeds.
var ErrDegraded = errors.New("store: degraded: write circuit open")

// File is the store's append-only backend. *os.File satisfies it via the
// osFile adapter; fault-injection wrappers (internal/faults) decorate it.
type File interface {
	io.Reader
	io.Writer
	Sync() error
	Truncate(size int64) error
	Size() (int64, error)
	Close() error
}

type osFile struct{ *os.File }

func (f osFile) Size() (int64, error) {
	info, err := f.Stat()
	if err != nil {
		return 0, err
	}
	return info.Size(), nil
}

// SyncPolicy controls when appended records are fsynced to stable storage.
type SyncPolicy int

const (
	// SyncNever writes records to the OS per put but fsyncs only on Close:
	// fastest, and a process crash loses nothing — only an OS crash or
	// power failure can lose recent puts.
	SyncNever SyncPolicy = iota
	// SyncInterval fsyncs at most once per Options.SyncInterval,
	// piggybacked on puts: bounds OS-crash loss to the interval without a
	// background goroutine.
	SyncInterval
	// SyncAlways fsyncs every put: maximal durability, one fsync per put.
	SyncAlways
)

func (p SyncPolicy) String() string {
	switch p {
	case SyncInterval:
		return "interval"
	case SyncAlways:
		return "always"
	default:
		return "never"
	}
}

// ParseSyncPolicy parses "never", "interval", or "always".
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "never":
		return SyncNever, nil
	case "interval":
		return SyncInterval, nil
	case "always":
		return SyncAlways, nil
	}
	return SyncNever, fmt.Errorf("store: unknown sync policy %q (want never, interval, or always)", s)
}

// Options configures OpenWith. The zero value (plus a Path) reproduces
// Open's behavior: no fsync until Close, three retries with 2ms-base
// backoff, a 10s breaker cooldown.
type Options struct {
	// Path of the append-only NDJSON file; empty = memory-only.
	Path string
	// Sync is the fsync policy; SyncInterval uses SyncInterval as the
	// period (default 1s).
	Sync         SyncPolicy
	SyncInterval time.Duration
	// RetryAttempts is how many times a failed append is retried before
	// tripping the breaker (default 3; negative = no retries). RetryBase
	// and RetryCap bound the exponential backoff between attempts
	// (defaults 2ms and 50ms; the sleep is jittered in [d/2, d]).
	RetryAttempts int
	RetryBase     time.Duration
	RetryCap      time.Duration
	// BreakerCooldown is how long puts fail fast after the breaker trips
	// before one probes the backend again (default 10s).
	BreakerCooldown time.Duration
	// WrapFile, when set, decorates the opened backend — the
	// fault-injection hook. Never called for memory-only stores.
	WrapFile func(File) File
	// AppendLatency, when set, observes the wall-clock seconds of each
	// commit (write + retries + fsync), including failed ones. Nil is a
	// no-op.
	AppendLatency *obs.Histogram
	// Clock and Sleep are injectable for deterministic tests (defaults
	// time.Now and time.Sleep).
	Clock func() time.Time
	Sleep func(time.Duration)
}

// Store maps cell digests to immutable result lines and request digests to
// cell-digest lists. It is safe for concurrent use. The zero value is not
// usable; call Open or OpenWith.
type Store struct {
	mu       sync.Mutex
	cells    map[string]json.RawMessage
	requests map[string][]string
	f        File   // nil = memory-only
	pend     []byte // scratch: records of the put being committed
	crcIn    []byte // scratch: checksum input (see crc)

	// Write-circuit state (guarded by mu).
	degraded bool      // breaker open: puts fail fast
	openedAt time.Time // when the breaker tripped
	tornTail bool      // last physical write may have ended mid-record

	retries  int
	base     time.Duration
	cap      time.Duration
	cooldown time.Duration
	syncPol  SyncPolicy
	syncEvry time.Duration
	lastSync time.Time
	now      func() time.Time
	sleep    func(time.Duration)
	rng      *rand.Rand // backoff jitter (guarded by mu)

	hits, misses         atomic.Int64 // whole-request probes
	cellHits, cellMisses atomic.Int64 // per-cell probes

	appendLatency *obs.Histogram // commit latency, nil = not observed

	quarantined  atomic.Int64 // corrupt complete lines skipped on replay
	appendErrors atomic.Int64 // puts that exhausted retries (breaker trips)
	appendRetry  atomic.Int64 // individual append retries
	droppedPuts  atomic.Int64 // puts rejected fast while degraded
	syncErrors   atomic.Int64 // fsync failures (data written, durability degraded)
}

// record is one append-only file line. Exactly one of Cell or Req is set: a
// cell result or a request index. CRC is a CRC-32C over the content fields.
type record struct {
	// Cell + Result: one stored cell line.
	Cell   string          `json:"cell,omitempty"`
	Result json.RawMessage `json:"result,omitempty"`
	// Req + Cells: the whole-request index entry.
	Req   string   `json:"req,omitempty"`
	Cells []string `json:"cells,omitempty"`
	// CRC guards the content fields above. A true checksum of zero is
	// written without the field and still verifies, since absent reads as
	// zero.
	CRC uint32 `json:"crc,omitempty"`
}

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// crc returns the record's checksum. It covers the content fields with
// unambiguous framing (a type tag plus NUL separators, so field boundaries
// can't alias), framed in the store's scratch buffer so neither puts nor
// replay allocate for it. Callers hold mu or, like replay, own the store.
func (s *Store) crc(rec *record) uint32 {
	s.crcIn = rec.crcInput(s.crcIn[:0])
	return crc32.Checksum(s.crcIn, crcTable)
}

// crcInput appends the framed content fields the checksum covers to dst.
func (rec *record) crcInput(dst []byte) []byte {
	switch {
	case rec.Cell != "":
		dst = append(dst, "c\x00"...)
		dst = append(dst, rec.Cell...)
		dst = append(dst, 0)
		dst = append(dst, rec.Result...)
	case rec.Req != "":
		dst = append(dst, "r\x00"...)
		dst = append(dst, rec.Req...)
		for _, c := range rec.Cells {
			dst = append(dst, 0)
			dst = append(dst, c...)
		}
	}
	return dst
}

// Open builds a store with default options. An empty path means
// memory-only; otherwise the path is an append-only NDJSON file: existing
// records are replayed into memory and every future put is appended.
func Open(path string) (*Store, error) {
	return OpenWith(Options{Path: path})
}

// OpenWith builds a store from Options. Replay quarantines corrupt
// complete lines (bad JSON, CRC mismatch, unrecognizable shape) — counted
// in Counters.Quarantined — and truncates only a torn newline-less tail,
// so a crash mid-append loses at most the put in progress and corruption
// elsewhere in the file never takes the records after it down too.
func OpenWith(opts Options) (*Store, error) {
	s := &Store{
		cells:    make(map[string]json.RawMessage),
		requests: make(map[string][]string),
		retries:  3,
		base:     2 * time.Millisecond,
		cap:      50 * time.Millisecond,
		cooldown: 10 * time.Second,
		syncPol:  opts.Sync,
		syncEvry: time.Second,
		now:      time.Now,
		sleep:    time.Sleep,

		appendLatency: opts.AppendLatency,
	}
	if opts.RetryAttempts != 0 {
		s.retries = max(opts.RetryAttempts, 0)
	}
	if opts.RetryBase > 0 {
		s.base = opts.RetryBase
	}
	if opts.RetryCap > 0 {
		s.cap = opts.RetryCap
	}
	if opts.BreakerCooldown > 0 {
		s.cooldown = opts.BreakerCooldown
	}
	if opts.SyncInterval > 0 {
		s.syncEvry = opts.SyncInterval
	}
	if opts.Clock != nil {
		s.now = opts.Clock
	}
	if opts.Sleep != nil {
		s.sleep = opts.Sleep
	}
	if opts.Path == "" {
		return s, nil
	}
	s.rng = rand.New(rand.NewSource(s.now().UnixNano()))
	osf, err := os.OpenFile(opts.Path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: open %s: %w", opts.Path, err)
	}
	var f File = osFile{osf}
	if opts.WrapFile != nil {
		f = opts.WrapFile(f)
	}
	// Replay tracking the byte offset past the last complete line: only a
	// newline-less tail (a crash mid-append) is truncated, so the next put
	// never glues onto a fragment. Complete lines always advance the
	// offset — corrupt ones are quarantined in place, not truncated, so a
	// flipped bit in an old record can't erase everything after it.
	r := bufio.NewReaderSize(f, 1<<20)
	var good int64
	for {
		line, err := r.ReadBytes('\n')
		if err != nil {
			if err != io.EOF {
				f.Close()
				return nil, fmt.Errorf("store: read %s: %w", opts.Path, err)
			}
			break
		}
		good += int64(len(line))
		trimmed := bytes.TrimSpace(line)
		if len(trimmed) == 0 {
			continue
		}
		rec, ok := s.decodeRecord(trimmed)
		if !ok || !s.replay(rec) {
			s.quarantined.Add(1)
		}
	}
	if size, err := f.Size(); err == nil && size > good {
		if err := f.Truncate(good); err != nil {
			f.Close()
			return nil, fmt.Errorf("store: truncate torn tail of %s: %w", opts.Path, err)
		}
	}
	s.f = f
	s.lastSync = s.now()
	return s, nil
}

// decodeRecord parses one non-empty file line, reporting false for a line
// replay must quarantine: bad JSON or a CRC mismatch. Every line is checked;
// a missing or misspelt "crc" key reads as zero and fails unless the
// content's checksum really is zero.
func (s *Store) decodeRecord(line []byte) (record, bool) {
	var rec record
	if err := json.Unmarshal(line, &rec); err != nil {
		return record{}, false
	}
	if rec.CRC != s.crc(&rec) {
		return record{}, false
	}
	return rec, true
}

// replay loads one file record into the maps, reporting whether the record
// had a recognizable shape.
func (s *Store) replay(rec record) bool {
	switch {
	case rec.Cell != "":
		s.cells[rec.Cell] = rec.Result
	case rec.Req != "":
		s.requests[rec.Req] = rec.Cells
	default:
		return false
	}
	return true
}

// GetRequest returns the ordered result lines stored under a whole-request
// digest via the request index. It counts a request-level hit or miss;
// callers probing for whole-request dedup should call it exactly once per
// submission.
func (s *Store) GetRequest(digest string) ([]json.RawMessage, bool) {
	s.mu.Lock()
	lines, ok := s.lookupRequestLocked(digest)
	s.mu.Unlock()
	if ok {
		s.hits.Add(1)
	} else {
		s.misses.Add(1)
	}
	return lines, ok
}

func (s *Store) lookupRequestLocked(digest string) ([]json.RawMessage, bool) {
	cells, ok := s.requests[digest]
	if !ok {
		return nil, false
	}
	lines := make([]json.RawMessage, len(cells))
	for i, c := range cells {
		line, ok := s.cells[c]
		if !ok {
			// Defensive: an index referencing a missing cell (possible via
			// a quarantined record) must read as a miss, never as a short
			// result set.
			return nil, false
		}
		lines[i] = line
	}
	return lines, true
}

// GetCell returns the result line stored under one cell digest, counting a
// per-cell hit or miss.
func (s *Store) GetCell(digest string) (json.RawMessage, bool) {
	s.mu.Lock()
	line, ok := s.cells[digest]
	s.mu.Unlock()
	if ok {
		s.cellHits.Add(1)
	} else {
		s.cellMisses.Add(1)
	}
	return line, ok
}

// PeekCell is GetCell without advancing the hit/miss counters: an internal
// re-probe (the service re-checks a cell after waiting out another sweep's
// in-flight evaluation) must not distort the effectiveness counters the
// bulk probe already recorded.
func (s *Store) PeekCell(digest string) (json.RawMessage, bool) {
	s.mu.Lock()
	line, ok := s.cells[digest]
	s.mu.Unlock()
	return line, ok
}

// LookupCells probes every digest at once and returns the stored lines
// aligned with the input (nil where the store has no entry) plus the hit
// count. One lock acquisition covers the whole grid, and the per-cell
// hit/miss counters advance by the aggregate — this is the sweep runner's
// bulk probe.
func (s *Store) LookupCells(digests []string) ([]json.RawMessage, int) {
	lines := make([]json.RawMessage, len(digests))
	hits := 0
	s.mu.Lock()
	for i, d := range digests {
		if line, ok := s.cells[d]; ok {
			lines[i] = line
			hits++
		}
	}
	s.mu.Unlock()
	s.cellHits.Add(int64(hits))
	s.cellMisses.Add(int64(len(digests) - hits))
	return lines, hits
}

// PutCell stores one result line under a cell digest. Entries are
// immutable: a digest already present is left untouched (the first writer
// wins — identical cells produce identical bytes, so there is nothing to
// overwrite). The line is copied; callers may reuse their buffer. A
// file-backed store keeps it compacted (see encodeCellLocked), so the
// memory map, the CRC and the file hold the same bytes and a reopened
// store serves exactly what was served before. When the append fails
// (after retries) or the write circuit is open, the memory map is NOT
// updated — memory and file stay coherent, the caller sees the error, and
// the result is simply not cached.
func (s *Store) PutCell(digest string, line json.RawMessage) error {
	if digest == "" {
		return fmt.Errorf("store: empty cell digest")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.cells[digest]; dup {
		return nil
	}
	s.pend = s.pend[:0]
	owned, err := s.encodeCellLocked(digest, line)
	if err != nil {
		return err
	}
	if err := s.commitLocked(); err != nil {
		return err
	}
	s.cells[digest] = owned
	return nil
}

// PutRequest records the whole-request index entry digest → cellDigests and
// stores any cell lines the store does not hold yet (lines aligned with
// cellDigests; lines may be nil when every cell is known to be present).
// The index is immutable like the cells: a request already indexed is left
// untouched. All records of one put commit in a single write; on failure
// none of them land in memory.
func (s *Store) PutRequest(digest string, cellDigests []string, lines []json.RawMessage) error {
	if digest == "" {
		return fmt.Errorf("store: empty request digest")
	}
	if lines != nil && len(lines) != len(cellDigests) {
		return fmt.Errorf("store: %d lines for %d cell digests", len(lines), len(cellDigests))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pend = s.pend[:0]
	type newCell struct {
		digest string
		line   json.RawMessage
	}
	var adds []newCell
	if lines != nil {
		for i, cd := range cellDigests {
			if cd == "" {
				return fmt.Errorf("store: empty cell digest")
			}
			if _, dup := s.cells[cd]; dup {
				continue
			}
			owned, err := s.encodeCellLocked(cd, lines[i])
			if err != nil {
				return err
			}
			adds = append(adds, newCell{cd, owned})
		}
	}
	_, dupReq := s.requests[digest]
	var cells []string
	if !dupReq {
		cells = append([]string(nil), cellDigests...)
		if err := s.encodeLocked(record{Req: digest, Cells: cells}); err != nil {
			return err
		}
	}
	if len(adds) == 0 && dupReq {
		return nil
	}
	if err := s.commitLocked(); err != nil {
		return err
	}
	for _, a := range adds {
		s.cells[a.digest] = a.line
	}
	if !dupReq {
		s.requests[digest] = cells
	}
	return nil
}

// canonicalLine returns a copy of line in the form json.Marshal writes a
// json.RawMessage: compact, with <, > and & (and U+2028, U+2029) escaped.
// A line that is not valid JSON is an error: replay could not parse it.
func canonicalLine(line []byte) (json.RawMessage, error) {
	return json.Marshal(json.RawMessage(line))
}

// plainDigest reports whether json.Marshal writes d as "d", unescaped.
func plainDigest(d string) bool {
	for i := 0; i < len(d); i++ {
		switch c := d[i]; {
		case c < ' ', c >= utf8.RuneSelf, c == '"', c == '\\', c == '<', c == '>', c == '&':
			return false
		}
	}
	return true
}

// appendCellRecord appends the file line of one cell record to dst: the
// bytes json.Marshal writes for record{Cell: digest, Result: line, CRC:
// crc}, plus the newline, without a reflective second pass over the line.
// line must be canonical (see canonicalLine).
func appendCellRecord(dst []byte, digest string, line json.RawMessage, crc uint32) ([]byte, error) {
	dst = append(dst, `{"cell":`...)
	if plainDigest(digest) {
		dst = append(dst, '"')
		dst = append(dst, digest...)
		dst = append(dst, '"')
	} else {
		// A digest json.Marshal would rewrite lossily could never match
		// its CRC on replay.
		if !utf8.ValidString(digest) {
			return nil, fmt.Errorf("store: cell digest %q is not valid UTF-8", digest)
		}
		q, err := json.Marshal(digest)
		if err != nil {
			return nil, fmt.Errorf("store: encode record: %w", err)
		}
		dst = append(dst, q...)
	}
	dst = append(dst, `,"result":`...)
	dst = append(dst, line...)
	if crc != 0 {
		dst = append(dst, `,"crc":`...)
		dst = strconv.AppendUint(dst, uint64(crc), 10)
	}
	return append(dst, '}', '\n'), nil
}

// encodeCellLocked returns the bytes the store keeps for a cell put and
// appends the cell's checksummed record to the pending buffer. A memory-only
// store keeps a plain copy of line, as given; a file-backed one keeps the
// canonical line, the bytes its file holds and its replay returns.
func (s *Store) encodeCellLocked(digest string, line json.RawMessage) (json.RawMessage, error) {
	if s.f == nil {
		return append(json.RawMessage(nil), line...), nil
	}
	owned, err := canonicalLine(line)
	if err != nil {
		return nil, err
	}
	pend, err := appendCellRecord(s.pend, digest, owned, s.crc(&record{Cell: digest, Result: owned}))
	if err != nil {
		return nil, err
	}
	s.pend = pend
	return owned, nil
}

// encodeLocked marshals one record (checksummed) into the pending buffer.
// No-op for memory-only stores so the map-only path stays allocation-free.
func (s *Store) encodeLocked(rec record) error {
	if s.f == nil {
		return nil
	}
	rec.CRC = s.crc(&rec)
	data, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("store: encode record: %w", err)
	}
	s.pend = append(s.pend, data...)
	s.pend = append(s.pend, '\n')
	return nil
}

var newline = []byte{'\n'}

// commitLocked writes the pending records to the backend, enforcing the
// write circuit, retrying transient failures, repairing a torn tail, and
// applying the sync policy. The memory maps are updated by the caller only
// after it returns nil.
func (s *Store) commitLocked() error {
	if s.f == nil || len(s.pend) == 0 {
		return nil
	}
	defer func(start time.Time) { s.appendLatency.ObserveSince(start) }(time.Now())
	if s.degraded {
		if s.now().Sub(s.openedAt) < s.cooldown {
			s.droppedPuts.Add(1)
			return ErrDegraded
		}
		// Cooldown elapsed: this put is the half-open probe. Fall through;
		// success closes the breaker, failure re-arms the cooldown.
	}
	if s.tornTail {
		// A previous put died partway through a write, leaving a fragment
		// with no terminator. Close the fragment off with a newline so it
		// replays as one quarantined line instead of corrupting the record
		// we are about to append. (A spurious empty line — fragment of
		// length zero — is skipped by replay.)
		if err := s.writeRetryLocked(newline); err != nil {
			s.tripLocked()
			return fmt.Errorf("store: append: %w", err)
		}
		s.tornTail = false
	}
	if err := s.writeRetryLocked(s.pend); err != nil {
		s.tripLocked()
		return fmt.Errorf("store: append: %w", err)
	}
	if s.degraded {
		s.degraded = false // probe succeeded: breaker closes
	}
	now := s.now()
	doSync := s.syncPol == SyncAlways ||
		(s.syncPol == SyncInterval && now.Sub(s.lastSync) >= s.syncEvry)
	if doSync {
		if err := s.syncRetryLocked(); err != nil {
			// The records ARE written (OS buffer), so the put is served and
			// the maps update — only durability degraded. Trip the breaker
			// so further puts stop until the backend proves healthy again.
			s.syncErrors.Add(1)
			s.tripLocked()
		} else {
			s.lastSync = now
		}
	}
	return nil
}

// tripLocked opens the write circuit.
func (s *Store) tripLocked() {
	s.appendErrors.Add(1)
	s.degraded = true
	s.openedAt = s.now()
}

// writeRetryLocked writes p fully, retrying transient failures with capped
// exponential backoff plus jitter. A partial write that cannot be completed
// marks the tail torn.
func (s *Store) writeRetryLocked(p []byte) error {
	written := 0
	for attempt := 0; ; attempt++ {
		n, err := s.f.Write(p[written:])
		if n > 0 {
			written += n
		}
		if written >= len(p) {
			return nil
		}
		if err == nil {
			err = io.ErrShortWrite
		}
		if attempt >= s.retries {
			if written > 0 {
				s.tornTail = true
			}
			return err
		}
		s.appendRetry.Add(1)
		s.sleep(s.backoffLocked(attempt))
	}
}

// syncRetryLocked fsyncs with the same retry schedule as writes.
func (s *Store) syncRetryLocked() error {
	for attempt := 0; ; attempt++ {
		err := s.f.Sync()
		if err == nil {
			return nil
		}
		if attempt >= s.retries {
			return err
		}
		s.appendRetry.Add(1)
		s.sleep(s.backoffLocked(attempt))
	}
}

// backoffLocked returns the jittered delay before retry number attempt
// (0-based): base·2^attempt capped at cap, jittered into [d/2, d].
func (s *Store) backoffLocked(attempt int) time.Duration {
	d := s.base << uint(min(attempt, 20))
	if d <= 0 || d > s.cap {
		d = s.cap
	}
	if s.rng != nil && d > 1 {
		d = d/2 + time.Duration(s.rng.Int63n(int64(d/2)+1))
	}
	return d
}

// Degraded reports whether the write circuit is open (read-only mode).
func (s *Store) Degraded() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.degraded
}

// Counters is a snapshot of the store's effectiveness and health counters.
type Counters struct {
	// Entries is the number of stored cell lines; Requests the number of
	// indexed whole requests.
	Entries  int
	Requests int
	// Hits and Misses count whole-request probes (GetRequest).
	Hits, Misses int64
	// CellHits and CellMisses count per-cell probes (GetCell, LookupCells);
	// a sweep that reuses 180 of 200 cells advances CellHits by 180 and
	// CellMisses by 20.
	CellHits, CellMisses int64
	// Quarantined counts corrupt or unrecognizable complete lines skipped
	// on replay.
	Quarantined int64
	// AppendErrors counts puts that exhausted their retries (each trips
	// the breaker); AppendRetries counts individual retry attempts;
	// DroppedPuts counts puts rejected fast while degraded; SyncErrors
	// counts fsync failures (records written, durability degraded).
	AppendErrors  int64
	AppendRetries int64
	DroppedPuts   int64
	SyncErrors    int64
	// Degraded reports the write circuit: true = open, read-only mode.
	Degraded bool
}

// Counters returns a snapshot of the store counters.
func (s *Store) Counters() Counters {
	s.mu.Lock()
	entries, requests := len(s.cells), len(s.requests)
	degraded := s.degraded
	s.mu.Unlock()
	return Counters{
		Entries:       entries,
		Requests:      requests,
		Hits:          s.hits.Load(),
		Misses:        s.misses.Load(),
		CellHits:      s.cellHits.Load(),
		CellMisses:    s.cellMisses.Load(),
		Quarantined:   s.quarantined.Load(),
		AppendErrors:  s.appendErrors.Load(),
		AppendRetries: s.appendRetry.Load(),
		DroppedPuts:   s.droppedPuts.Load(),
		SyncErrors:    s.syncErrors.Load(),
		Degraded:      degraded,
	}
}

// Close syncs and closes the file backend; memory-only stores are a no-op.
// The store must not be used after Close.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return nil
	}
	f := s.f
	s.f = nil
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("store: sync: %w", err)
	}
	return f.Close()
}
