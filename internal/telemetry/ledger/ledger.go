// Package ledger keeps the cross-run trajectory of sealed benchmark and
// result artifacts: an append-only, content-addressed history of perf
// packs (internal/telemetry/perf) and result packs
// (internal/telemetry/resultpack) under one directory:
//
//	<dir>/index.json       canonical-JSON index, sealed with a SHA-256
//	                       self-manifest by the same envelope codec
//	                       (perf.Seal, perf.Decode) as the packs themselves
//	<dir>/packs/<digest>.json  the verbatim sealed pack bytes, one file
//	                       per pack, named by its manifest digest
//
// Every index entry is derived purely from the appended pack — digest,
// kind, suite/source, creation timestamp, commit and environment
// fingerprint — so rebuilding a ledger from the same packs reproduces the
// same index bytes. Appends are idempotent (a pack already present is a
// no-op) and serialized through an on-disk lock file, so concurrent
// appenders (CI shards, parallel test runs) interleave safely.
//
// On top of the store, trend.go extracts per-benchmark time series with
// rolling median/MAD statistics and changepoint detection, and gate.go
// applies perf.Compare's noise envelope (perf.Envelope) to the rolling
// history, separating genuine drift from environment changes
// (go version, CPU model, dataset draw) via perf.Env.Fingerprint.
package ledger

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"microdata/internal/telemetry/perf"
	"microdata/internal/telemetry/resultpack"
)

// IndexSchema identifies the ledger index document; IndexVersion is bumped
// on any backwards-incompatible shape change.
const (
	IndexSchema  = "microdata/ledger-index"
	IndexVersion = 1
)

// Entry kinds: which pack schema the entry records.
const (
	KindPerf   = "perf"
	KindResult = "result"
)

const (
	indexFile = "index.json"
	packsDir  = "packs"
	lockName  = ".lock"
)

// Entry is one appended pack's index record. Every field is derived from
// the pack itself, never from append time, so the index is a pure function
// of its pack set.
type Entry struct {
	// Digest is the pack's manifest digest — its content address.
	Digest string `json:"digest"`
	// Kind is KindPerf or KindResult.
	Kind string `json:"kind"`
	// Suite is the perf pack's suite list, or the result pack's source.
	Suite string `json:"suite,omitempty"`
	// Reps is the perf pack's repetition count (0 for result packs).
	Reps int `json:"reps,omitempty"`
	// Benchmarks counts the perf pack's benchmarks, or the result pack's
	// algorithm rows.
	Benchmarks int `json:"benchmarks,omitempty"`
	// CreatedUnixMS is the pack's own creation timestamp; entries order by
	// (CreatedUnixMS, Digest).
	CreatedUnixMS int64 `json:"created_unix_ms"`
	// EnvFingerprint is perf.Env.Fingerprint() — the comparability key the
	// trend gate groups history by.
	EnvFingerprint string `json:"env_fingerprint"`
	// GitRevision is the producing commit (may be empty outside a build
	// with VCS stamping).
	GitRevision string `json:"git_revision,omitempty"`
	// Env is the full fingerprint, kept inline so attribution never needs
	// to re-read the pack.
	Env perf.Env `json:"env"`
}

// Index is the ledger's index document.
type Index struct {
	Schema  string `json:"schema"`
	Version int    `json:"version"`
	// Entries is sorted by (CreatedUnixMS, Digest).
	Entries []Entry `json:"entries"`
	// Manifest seals the index; nil only while under construction.
	Manifest *perf.Manifest `json:"manifest,omitempty"`
}

// Ledger is an opened ledger directory.
type Ledger struct {
	Dir   string
	Index *Index
}

// Open loads the ledger at dir. A missing directory or index is a valid
// empty ledger (Append creates both); a present index must parse, match
// the schema/version and verify its self-manifest.
func Open(dir string) (*Ledger, error) {
	idx, err := readIndex(dir)
	if err != nil {
		return nil, err
	}
	return &Ledger{Dir: dir, Index: idx}, nil
}

// readIndex decodes dir's index with the shared envelope codec; a missing
// index is an empty one.
func readIndex(dir string) (*Index, error) {
	idx, err := perf.DecodeFile[Index](filepath.Join(dir, indexFile), IndexSchema, IndexVersion)
	if errors.Is(err, fs.ErrNotExist) {
		return &Index{Schema: IndexSchema, Version: IndexVersion}, nil
	}
	return idx, err
}

// PackPath returns the content-addressed path of a pack by digest.
func (l *Ledger) PackPath(digest string) string {
	return filepath.Join(l.Dir, packsDir, digest+".json")
}

// Entries returns the index entries of the given kind ("" for all), in
// chronological order.
func (l *Ledger) Entries(kind string) []Entry {
	var out []Entry
	for _, e := range l.Index.Entries {
		if kind == "" || e.Kind == kind {
			out = append(out, e)
		}
	}
	return out
}

// Find resolves a digest prefix to its unique entry.
func (l *Ledger) Find(prefix string) (*Entry, error) {
	if prefix == "" {
		return nil, perf.Invalidf("ledger: empty digest prefix")
	}
	var match *Entry
	for i := range l.Index.Entries {
		e := &l.Index.Entries[i]
		if strings.HasPrefix(e.Digest, prefix) {
			if match != nil {
				return nil, perf.Invalidf("ledger: digest prefix %q is ambiguous (%s vs %s)",
					prefix, match.Digest[:12], e.Digest[:12])
			}
			match = e
		}
	}
	if match == nil {
		return nil, perf.Invalidf("ledger: no entry matches digest prefix %q", prefix)
	}
	return match, nil
}

// ReadPerf loads and verifies the perf pack behind an entry digest.
func (l *Ledger) ReadPerf(digest string) (*perf.Pack, error) {
	return perf.ReadFile(l.PackPath(digest))
}

// ReadResult loads and verifies the result pack behind an entry digest.
func (l *Ledger) ReadResult(digest string) (*resultpack.Pack, error) {
	return resultpack.ReadFile(l.PackPath(digest))
}

// entryFor classifies raw pack bytes and derives the index entry. Both
// pack readers verify the self-manifest, so only sealed, untampered packs
// are appendable.
func entryFor(raw []byte) (*Entry, error) {
	var head struct {
		Schema string `json:"schema"`
	}
	// Only the first value is the header: trailing bytes are the
	// verifier's to reject (as tampering), not a parse error.
	if err := json.NewDecoder(bytes.NewReader(raw)).Decode(&head); err != nil {
		return nil, perf.Exit(perf.ExitInvalid, fmt.Errorf("ledger: parse pack: %w", err))
	}
	switch head.Schema {
	case perf.Schema:
		p, err := perf.Read(raw)
		if err != nil {
			return nil, err
		}
		return &Entry{
			Digest: p.Manifest.Digest, Kind: KindPerf,
			Suite: p.Suite, Reps: p.Reps, Benchmarks: len(p.Benchmarks),
			CreatedUnixMS: p.CreatedUnixMS, EnvFingerprint: p.Env.Fingerprint(),
			GitRevision: p.Env.GitRevision, Env: p.Env,
		}, nil
	case resultpack.Schema:
		p, err := resultpack.Read(raw)
		if err != nil {
			return nil, err
		}
		return &Entry{
			Digest: p.Manifest.Digest, Kind: KindResult,
			Suite: p.Source, Benchmarks: len(p.Algorithms),
			CreatedUnixMS: p.CreatedUnixMS, EnvFingerprint: p.Env.Fingerprint(),
			GitRevision: p.Env.GitRevision, Env: p.Env,
		}, nil
	default:
		return nil, perf.Invalidf("ledger: unsupported pack schema %q", head.Schema)
	}
}

// Append verifies a sealed pack and records it: the verbatim bytes land
// content-addressed under packs/, and the index gains its entry. The
// update is serialized by an on-disk lock and the index is re-read under
// it, so concurrent appenders compose; re-appending a present digest
// returns added=false and changes nothing. On return l.Index reflects the
// post-append index.
func (l *Ledger) Append(raw []byte) (entry *Entry, added bool, err error) {
	entry, err = entryFor(raw)
	if err != nil {
		return nil, false, err
	}
	if err := os.MkdirAll(filepath.Join(l.Dir, packsDir), 0o755); err != nil {
		return nil, false, fmt.Errorf("ledger: %w", err)
	}
	release, err := acquireLock(l.Dir)
	if err != nil {
		return nil, false, err
	}
	defer release()

	// Re-read the index under the lock: another appender may have moved it
	// since Open.
	idx, err := readIndex(l.Dir)
	if err != nil {
		return nil, false, err
	}
	for _, e := range idx.Entries {
		if e.Digest == entry.Digest {
			l.Index = idx
			return entry, false, nil
		}
	}
	if err := writeFileAtomic(l.PackPath(entry.Digest), raw); err != nil {
		return nil, false, fmt.Errorf("ledger: %w", err)
	}
	idx.Entries = append(idx.Entries, *entry)
	sort.Slice(idx.Entries, func(i, j int) bool {
		a, b := idx.Entries[i], idx.Entries[j]
		if a.CreatedUnixMS != b.CreatedUnixMS {
			return a.CreatedUnixMS < b.CreatedUnixMS
		}
		return a.Digest < b.Digest
	})
	if err := perf.Seal(idx, &idx.Manifest); err != nil {
		return nil, false, err
	}
	var buf bytes.Buffer
	if err := perf.Write(&buf, idx); err != nil {
		return nil, false, err
	}
	if err := writeFileAtomic(filepath.Join(l.Dir, indexFile), buf.Bytes()); err != nil {
		return nil, false, fmt.Errorf("ledger: %w", err)
	}
	l.Index = idx
	return entry, true, nil
}

// AppendFile appends the pack at path.
func (l *Ledger) AppendFile(path string) (*Entry, bool, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, false, perf.Exit(perf.ExitInvalid, fmt.Errorf("ledger: %w", err))
	}
	entry, added, err := l.Append(raw)
	if err != nil {
		return nil, false, fmt.Errorf("%s: %w", path, err)
	}
	return entry, added, nil
}

// acquireLock takes the ledger's append lock: an O_EXCL lock file, retried
// for up to 10 s. A lock file older than a minute is treated as left over
// from a crashed appender and broken.
func acquireLock(dir string) (release func(), err error) {
	path := filepath.Join(dir, lockName)
	deadline := time.Now().Add(10 * time.Second)
	for {
		f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
		if err == nil {
			f.Close()
			return func() { os.Remove(path) }, nil
		}
		if !os.IsExist(err) {
			return nil, fmt.Errorf("ledger: lock: %w", err)
		}
		if st, serr := os.Stat(path); serr == nil && time.Since(st.ModTime()) > time.Minute {
			os.Remove(path)
			continue
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("ledger: lock %s held too long (stale appender?)", path)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// writeFileAtomic writes via a temp file + rename so readers never see a
// partial document.
func writeFileAtomic(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), path)
}
