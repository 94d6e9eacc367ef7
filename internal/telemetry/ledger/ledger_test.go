package ledger

import (
	"bytes"
	"fmt"
	"os"
	"sync"
	"testing"

	"microdata/internal/telemetry/perf"
	"microdata/internal/telemetry/resultpack"
)

// testEnv is a fixed fingerprint; vary fields per test to model env drift.
func testEnv() perf.Env {
	return perf.Env{
		GoVersion: "go1.24.0", GOOS: "linux", GOARCH: "amd64",
		GOMAXPROCS: 1, NumCPU: 1, CPUModel: "Test CPU @ 2.10GHz",
		GitRevision: "deadbeef", DatasetHash: "abc123", Seed: 1, N: 400, K: 5,
	}
}

// perfPackBytes seals a synthetic one-benchmark perf pack. wall is the
// nominal wall_ns level (samples jitter ±1%).
func perfPackBytes(t *testing.T, created int64, env perf.Env, wall float64) []byte {
	t.Helper()
	p := &perf.Pack{
		Schema: perf.Schema, Version: perf.Version, Suite: "synthetic", Reps: 3,
		CreatedUnixMS: created, Env: env,
		Benchmarks: []perf.Benchmark{{
			Name: "synthetic/op",
			Metrics: map[string]perf.Series{
				perf.MetricWallNS:    perf.NewSeries("ns", []float64{wall, wall * 1.01, wall * 0.99}),
				perf.MetricAllocs:    perf.NewSeries("count", []float64{10000, 10000, 10000}),
				perf.MetricHeapBytes: perf.NewSeries("bytes", []float64{1 << 20, 1 << 20, 1 << 20}),
			},
		}},
	}
	return sealBytes(t, p)
}

// resultPackBytes seals a synthetic result pack with one algorithm row.
func resultPackBytes(t *testing.T, created int64, env perf.Env, lm float64) []byte {
	t.Helper()
	p := &resultpack.Pack{
		Schema: resultpack.Schema, Version: resultpack.Version, Source: resultpack.SourceCensus,
		CreatedUnixMS: created, Env: env,
		Algorithms: []resultpack.AlgorithmResult{{
			Algorithm: "datafly", K: 5, Node: "[0 1 2]", Classes: 10,
			Measures: map[string]resultpack.Float{"lm": resultpack.Float(lm)},
		}},
	}
	return sealBytes(t, p)
}

// sealBytes seals a pack and returns its on-disk bytes.
func sealBytes(t *testing.T, pack interface{ Seal() error }) []byte {
	t.Helper()
	if err := pack.Seal(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := perf.Write(&buf, pack); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func mustAppend(t *testing.T, l *Ledger, raw []byte) *Entry {
	t.Helper()
	e, added, err := l.Append(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !added {
		t.Fatalf("append of new pack reported added=false (digest %s)", e.Digest[:12])
	}
	return e
}

func TestOpenEmptyLedger(t *testing.T) {
	l, err := Open(t.TempDir() + "/nonexistent")
	if err != nil {
		t.Fatal(err)
	}
	if len(l.Index.Entries) != 0 {
		t.Errorf("empty ledger has %d entries", len(l.Index.Entries))
	}
}

func TestAppendAndReload(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	e1 := mustAppend(t, l, perfPackBytes(t, 1000, testEnv(), 100e6))
	e2 := mustAppend(t, l, resultPackBytes(t, 2000, testEnv(), 0.5))

	if e1.Kind != KindPerf || e1.Suite != "synthetic" || e1.Benchmarks != 1 {
		t.Errorf("perf entry = %+v", e1)
	}
	if e2.Kind != KindResult || e2.Suite != resultpack.SourceCensus {
		t.Errorf("result entry = %+v", e2)
	}
	if e1.EnvFingerprint == "" || e1.EnvFingerprint != e2.EnvFingerprint {
		t.Errorf("same env, different fingerprints: %q vs %q", e1.EnvFingerprint, e2.EnvFingerprint)
	}

	// Reload from disk: same entries, verified index, readable packs.
	l2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(l2.Index.Entries) != 2 {
		t.Fatalf("reloaded ledger has %d entries, want 2", len(l2.Index.Entries))
	}
	if _, err := l2.ReadPerf(e1.Digest); err != nil {
		t.Errorf("ReadPerf: %v", err)
	}
	if _, err := l2.ReadResult(e2.Digest); err != nil {
		t.Errorf("ReadResult: %v", err)
	}
}

func TestAppendIsIdempotent(t *testing.T) {
	l, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	raw := perfPackBytes(t, 1000, testEnv(), 100e6)
	mustAppend(t, l, raw)
	_, added, err := l.Append(raw)
	if err != nil {
		t.Fatal(err)
	}
	if added {
		t.Error("re-append reported added=true")
	}
	if n := len(l.Index.Entries); n != 1 {
		t.Errorf("%d entries after double append, want 1", n)
	}
}

func TestAppendOrdersByCreation(t *testing.T) {
	l, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// Append out of chronological order; the index must sort by creation.
	mustAppend(t, l, perfPackBytes(t, 3000, testEnv(), 100e6))
	mustAppend(t, l, perfPackBytes(t, 1000, testEnv(), 110e6))
	mustAppend(t, l, perfPackBytes(t, 2000, testEnv(), 120e6))
	var got []int64
	for _, e := range l.Index.Entries {
		got = append(got, e.CreatedUnixMS)
	}
	for i := 1; i < len(got); i++ {
		if got[i-1] > got[i] {
			t.Fatalf("index not chronological: %v", got)
		}
	}
}

func TestAppendRejectsUnsealedAndGarbage(t *testing.T) {
	l, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// Unsealed pack: no manifest → verification failure.
	unsealed := []byte(`{"schema":"microdata/perf-pack","version":1,"suite":"s","reps":1,"created_unix_ms":1,"env":{"go_version":"go1.24.0","goos":"linux","goarch":"amd64","gomaxprocs":1,"num_cpu":1,"seed":1,"n":1,"k":1},"benchmarks":[]}`)
	if _, _, err := l.Append(unsealed); perf.ExitCode(err) != perf.ExitVerification {
		t.Errorf("unsealed pack: exit %d (%v), want %d", perf.ExitCode(err), err, perf.ExitVerification)
	}
	// Wrong schema → invalid.
	if _, _, err := l.Append([]byte(`{"schema":"other","version":1}`)); perf.ExitCode(err) != perf.ExitInvalid {
		t.Errorf("wrong schema: exit %d (%v), want %d", perf.ExitCode(err), err, perf.ExitInvalid)
	}
	// Tampered pack: flip a digit after sealing.
	raw := perfPackBytes(t, 1000, testEnv(), 100e6)
	tampered := bytes.Replace(raw, []byte("100000000"), []byte("100000001"), 1)
	if bytes.Equal(tampered, raw) {
		t.Fatal("tamper target not found")
	}
	if _, _, err := l.Append(tampered); perf.ExitCode(err) != perf.ExitVerification {
		t.Errorf("tampered pack: exit %d (%v), want %d", perf.ExitCode(err), err, perf.ExitVerification)
	}
}

func TestTamperedIndexFailsOpen(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, l, perfPackBytes(t, 1000, testEnv(), 100e6))
	idxPath := dir + "/index.json"
	raw, err := os.ReadFile(idxPath)
	if err != nil {
		t.Fatal(err)
	}
	tampered := bytes.Replace(raw, []byte(`"kind":"perf"`), []byte(`"kind":"PERF"`), 1)
	if bytes.Equal(tampered, raw) {
		t.Fatal("tamper target not found in index")
	}
	if err := os.WriteFile(idxPath, tampered, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); perf.ExitCode(err) != perf.ExitVerification {
		t.Errorf("tampered index: exit %d (%v), want %d", perf.ExitCode(err), err, perf.ExitVerification)
	}
}

func TestTamperedPackFailsRead(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	e := mustAppend(t, l, perfPackBytes(t, 1000, testEnv(), 100e6))
	raw, err := os.ReadFile(l.PackPath(e.Digest))
	if err != nil {
		t.Fatal(err)
	}
	tampered := bytes.Replace(raw, []byte("100000000"), []byte("100000001"), 1)
	if err := os.WriteFile(l.PackPath(e.Digest), tampered, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := l.ReadPerf(e.Digest); perf.ExitCode(err) != perf.ExitVerification {
		t.Errorf("tampered pack read: exit %d (%v), want %d", perf.ExitCode(err), err, perf.ExitVerification)
	}
}

func TestFindByPrefix(t *testing.T) {
	l, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	e := mustAppend(t, l, perfPackBytes(t, 1000, testEnv(), 100e6))
	got, err := l.Find(e.Digest[:8])
	if err != nil {
		t.Fatal(err)
	}
	if got.Digest != e.Digest {
		t.Errorf("Find(%q) = %s, want %s", e.Digest[:8], got.Digest, e.Digest)
	}
	if _, err := l.Find("zzzz"); perf.ExitCode(err) != perf.ExitInvalid {
		t.Errorf("unknown prefix: exit %d (%v), want %d", perf.ExitCode(err), err, perf.ExitInvalid)
	}
}

// TestConcurrentAppend hammers one ledger directory from many goroutines
// (run under -race in CI): every distinct pack must land exactly once and
// the final index must verify.
func TestConcurrentAppend(t *testing.T) {
	dir := t.TempDir()
	const appenders = 8
	var wg sync.WaitGroup
	errs := make([]error, appenders)
	for i := 0; i < appenders; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			l, err := Open(dir)
			if err != nil {
				errs[i] = err
				return
			}
			// Distinct pack per appender plus one shared pack everyone races
			// to insert.
			env := testEnv()
			env.GitRevision = fmt.Sprintf("commit-%d", i)
			if _, _, err := l.Append(perfPackBytes(t, int64(1000+i), env, float64(100+i)*1e6)); err != nil {
				errs[i] = err
				return
			}
			if _, _, err := l.Append(perfPackBytes(t, 50, testEnv(), 99e6)); err != nil {
				errs[i] = err
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("appender %d: %v", i, err)
		}
	}
	l, err := Open(dir)
	if err != nil {
		t.Fatalf("final open: %v", err)
	}
	if n := len(l.Index.Entries); n != appenders+1 {
		t.Fatalf("final ledger has %d entries, want %d", n, appenders+1)
	}
	for _, e := range l.Index.Entries {
		if _, err := l.ReadPerf(e.Digest); err != nil {
			t.Errorf("entry %s unreadable: %v", e.Digest[:12], err)
		}
	}
}

func TestEnvFingerprintIgnoresCommit(t *testing.T) {
	a, b := testEnv(), testEnv()
	b.GitRevision = "feedface"
	if a.Fingerprint() != b.Fingerprint() {
		t.Error("commit change altered the env fingerprint")
	}
	c := testEnv()
	c.GoVersion = "go1.25.0"
	if a.Fingerprint() == c.Fingerprint() {
		t.Error("go-version change did not alter the env fingerprint")
	}
}

func TestSparkline(t *testing.T) {
	if got := Sparkline([]float64{1, 2, 3, 4, 5, 6, 7, 8}); got != "▁▂▃▄▅▆▇█" {
		t.Errorf("ramp sparkline = %q", got)
	}
	if got := Sparkline([]float64{5, 5, 5}); got != "▄▄▄" {
		t.Errorf("constant sparkline = %q", got)
	}
	if got := Sparkline(nil); got != "" {
		t.Errorf("empty sparkline = %q", got)
	}
}
