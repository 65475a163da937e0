package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"path/filepath"
	"testing"
)

// goldenLines are result lines exactly as the evaluation service writes
// them: policy cells, an optimal cell with search stats, a failed cell.
var goldenLines = []string{
	`{"grid":"paper","bank":"2xB1","load":"ILs alt","solver":"sequential","lifetime_min":12.38,"decisions":8}`,
	`{"grid":"paper","bank":"2xB1","load":"ILs alt","solver":"best-of-two","lifetime_min":16.28,"decisions":10}`,
	`{"grid":"paper","bank":"2xB1","load":"ILs alt","solver":"optimal","lifetime_min":16.9,"decisions":10,"stats":{"states":85,"leaves":8,"memo_hits":1,"pruned":0,"lp_bounds":112,"lp_pruned":27,"steals":0,"shared_memo_hits":0}}`,
	`{"grid":"paper","bank":"2xB1","load":"CL 250","solver":"sequential","lifetime_min":9.120000000000001,"decisions":11}`,
	`{"grid":"paper","bank":"2xB1","load":"ILs alt","solver":"optimal-ta","lifetime_min":0,"decisions":0,"error":"mc: state budget exhausted (2 states)"}`,
}

func hexDigest(s string) string {
	d := sha256.Sum256([]byte(s))
	return hex.EncodeToString(d[:])
}

// marshalRecord is the reference encoding appendCellRecord must reproduce.
func marshalRecord(t testing.TB, digest string, line json.RawMessage, crc uint32) []byte {
	t.Helper()
	want, err := json.Marshal(record{Cell: digest, Result: line, CRC: crc})
	if err != nil {
		t.Fatal(err)
	}
	return append(want, '\n')
}

// TestAppendCellRecordMatchesMarshal is the encoder differential: for
// compact lines — json.Marshal output, HTML-escaped — the appended record
// is byte-identical to json.Marshal of the record struct.
func TestAppendCellRecordMatchesMarshal(t *testing.T) {
	type res struct {
		Load   string  `json:"load"`
		Solver string  `json:"solver"`
		Life   float64 `json:"lifetime_min"`
		Error  string  `json:"error,omitempty"`
	}
	extra := []res{
		{Load: "a<b & c>d", Solver: "bestof", Life: 1.5},
		{Load: "Übergang – Ωmega 負荷", Solver: "optimal", Life: 2},
		{Load: "line\u2028sep", Solver: "x", Error: `quote " and \ backslash`},
	}
	var compact []string
	compact = append(compact, goldenLines...)
	for _, r := range extra {
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		compact = append(compact, string(b))
	}
	for i, l := range compact {
		line, err := canonicalLine([]byte(l))
		if err != nil {
			t.Fatal(err)
		}
		if string(line) != l {
			t.Fatalf("line %d: canonical form changed a compact line:\n got %s\nwant %s", i, line, l)
		}
		for _, digest := range []string{hexDigest(l), "cell-1"} {
			rec := record{Cell: digest, Result: line}
			for _, crc := range []uint32{new(Store).crc(&rec), 0} {
				got, err := appendCellRecord(nil, digest, line, crc)
				if err != nil {
					t.Fatal(err)
				}
				want := marshalRecord(t, digest, line, crc)
				if !bytes.Equal(got, want) {
					t.Fatalf("line %d crc %d:\n got %s\nwant %s", i, crc, got, want)
				}
				if crc == 0 && bytes.Contains(got, []byte(`"crc"`)) {
					t.Fatalf("zero CRC not omitted: %s", got)
				}
			}
		}
	}
}

// TestRecordFormatPinned: records written by earlier versions of the
// store replay cleanly, and a put of the same cell writes the same line.
func TestRecordFormatPinned(t *testing.T) {
	const cellLine = `{"cell":"9eb64c2889c15fca201c8abcca5d67d1f1261c5451c78e6b541478d84826b299","result":{"grid":"T0.01-G0.01","bank":"2xB1","load":"ILs alt","solver":"sequential","lifetime_min":12.38,"decisions":8},"crc":4061941684}`
	const reqLine = `{"req":"req1","cells":["x1","x2"],"crc":1331903703}`
	for _, l := range []string{cellLine, reqLine} {
		if _, ok := new(Store).decodeRecord([]byte(l)); !ok {
			t.Fatalf("pinned record quarantined: %s", l)
		}
	}
	rec, _ := new(Store).decodeRecord([]byte(cellLine))
	got, err := appendCellRecord(nil, rec.Cell, rec.Result, new(Store).crc(&rec))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != cellLine+"\n" {
		t.Fatalf("re-encoded pinned record:\n got %s\nwant %s", got, cellLine)
	}
}

// TestAppendCellRecordEscapesDigest covers digests json.Marshal rewrites
// (quotes, HTML characters, non-ASCII) and rejects one it would rewrite
// lossily.
func TestAppendCellRecordEscapesDigest(t *testing.T) {
	line := json.RawMessage(goldenLines[0])
	for _, digest := range []string{`a"b`, `a\b`, "a<b>&c", "zelle-Ω", "tab\there"} {
		got, err := appendCellRecord(nil, digest, line, 7)
		if err != nil {
			t.Fatal(err)
		}
		if want := marshalRecord(t, digest, line, 7); !bytes.Equal(got, want) {
			t.Fatalf("digest %q:\n got %s\nwant %s", digest, got, want)
		}
	}
	if _, err := appendCellRecord(nil, "bad\xff", line, 7); err == nil {
		t.Fatal("invalid UTF-8 digest accepted")
	}
}

// TestNonCompactLineSurvivesRestart is the regression for lines given
// with whitespace or raw HTML characters: the store compacts them once at
// put time, so the CRC covers the written bytes and a reopened store
// serves exactly what was served before the restart.
func TestNonCompactLineSurvivesRestart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cells.ndjson")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PutCell("abc", json.RawMessage(`{"a": 1, "b":"x<y"}`)); err != nil {
		t.Fatal(err)
	}
	before, ok := s.GetCell("abc")
	if !ok {
		t.Fatal("put line not served")
	}
	if want := `{"a":1,"b":"x\u003cy"}`; string(before) != want {
		t.Fatalf("stored line %s, want %s", before, want)
	}
	if err := s.PutCell("bad", json.RawMessage(`{"a":`)); err == nil {
		t.Fatal("invalid JSON line accepted")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if q := re.Counters().Quarantined; q != 0 {
		t.Fatalf("reopen quarantined %d lines", q)
	}
	after, ok := re.GetCell("abc")
	if !ok || !bytes.Equal(after, before) {
		t.Fatalf("after restart: %s (ok=%v), before: %s", after, ok, before)
	}
}

// FuzzCellRecord: any digest and line PutCell accepts must encode to the
// bytes json.Marshal(record) writes, and replay from those bytes must
// return exactly the stored line under exactly the digest — never panic,
// never quarantine.
func FuzzCellRecord(f *testing.F) {
	for _, l := range goldenLines {
		f.Add(hexDigest(l), []byte(l))
	}
	f.Add("abc", []byte(`{"a": 1, "b":"x<y"}`))
	f.Add("d", []byte(" [1, \"\u2028\", null] "))
	f.Add("e", []byte(`{"load": "ILs alt","esc":"q\" \\ <"}`))
	f.Fuzz(func(t *testing.T, digest string, raw []byte) {
		line, err := canonicalLine(raw)
		if err != nil || digest == "" {
			return
		}
		rec := record{Cell: digest, Result: line}
		crc := new(Store).crc(&rec)
		got, err := appendCellRecord(nil, digest, line, crc)
		if err != nil {
			return // a digest json.Marshal would mangle is refused
		}
		if want := marshalRecord(t, digest, line, crc); !bytes.Equal(got, want) {
			t.Fatalf("encoding differs from json.Marshal:\n got %s\nwant %s", got, want)
		}
		back, ok := new(Store).decodeRecord(bytes.TrimSpace(got))
		if !ok {
			t.Fatalf("replay quarantined its own record %s", got)
		}
		if back.Cell != digest || !bytes.Equal(back.Result, line) {
			t.Fatalf("replay returned cell %q %s, want %q %s", back.Cell, back.Result, digest, line)
		}
	})
}
