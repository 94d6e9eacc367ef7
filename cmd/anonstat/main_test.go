package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"microdata/internal/telemetry/ledger"
	"microdata/internal/telemetry/perf"
)

var update = flag.Bool("update", false, "rewrite golden files from current output")

// fixedEnv pins every fingerprint field so pack digests — and therefore the
// golden trend document — are fully deterministic.
func fixedEnv() perf.Env {
	return perf.Env{
		GoVersion: "go1.24.0", GOOS: "linux", GOARCH: "amd64",
		GOMAXPROCS: 1, NumCPU: 1, CPUModel: "Test CPU @ 2.10GHz",
		GitRevision: "deadbeef", DatasetHash: "abc123", Seed: 1, N: 400, K: 5,
	}
}

// writePack seals a deterministic one-benchmark perf pack under dir.
func writePack(t *testing.T, dir string, created int64, env perf.Env, wall float64) string {
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
	if err := p.Seal(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, fmt.Sprintf("pack-%d.json", created))
	if err := perf.WriteFile(path, p); err != nil {
		t.Fatal(err)
	}
	return path
}

// runCLI invokes the anonstat entry point, returning stdout and the error
// carrying the exit code.
func runCLI(t *testing.T, args ...string) (string, error) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	err := run(args, &stdout, &stderr)
	return stdout.String(), err
}

// seedLedger appends packs with the given wall levels (same fixed env,
// creation-stamped 1000, 2000, ...) and returns the ledger dir.
func seedLedger(t *testing.T, walls ...float64) string {
	t.Helper()
	dir := t.TempDir()
	ldir := filepath.Join(dir, "ledger")
	var paths []string
	for i, w := range walls {
		paths = append(paths, writePack(t, dir, int64((i+1)*1000), fixedEnv(), w))
	}
	out, err := runCLI(t, append([]string{"append", "-ledger", ldir}, paths...)...)
	if err != nil {
		t.Fatalf("append: %v\n%s", err, out)
	}
	return ldir
}

func TestAppendLsShow(t *testing.T) {
	ldir := seedLedger(t, 100e6, 110e6)
	l, err := ledger.Open(ldir)
	if err != nil {
		t.Fatal(err)
	}
	if len(l.Index.Entries) != 2 {
		t.Fatalf("%d entries, want 2", len(l.Index.Entries))
	}
	digest := l.Index.Entries[0].Digest

	out, err := runCLI(t, "ls", "-ledger", ldir)
	if err != nil {
		t.Fatalf("ls: %v", err)
	}
	if !strings.Contains(out, digest[:12]) || !strings.Contains(out, "synthetic") {
		t.Errorf("ls output missing entry:\n%s", out)
	}

	out, err = runCLI(t, "show", "-ledger", ldir, digest[:8])
	if err != nil {
		t.Fatalf("show: %v", err)
	}
	for _, want := range []string{digest, "kind:            perf", "go1.24.0", "synthetic/op"} {
		if !strings.Contains(out, want) {
			t.Errorf("show output missing %q:\n%s", want, out)
		}
	}

	// Re-append is an idempotent no-op.
	p := writePack(t, t.TempDir(), 1000, fixedEnv(), 100e6)
	out, err = runCLI(t, "append", "-ledger", ldir, p)
	if err != nil {
		t.Fatalf("re-append: %v", err)
	}
	if !strings.Contains(out, "already present") {
		t.Errorf("re-append output:\n%s", out)
	}
}

// TestGateFailsOnDoubledEntry pins the acceptance contract: a ledger whose
// newest entry doubles wall_ns under an unchanged environment exits 5 with
// a path-level diagnostic naming the benchmark and the entry digest.
func TestGateFailsOnDoubledEntry(t *testing.T) {
	ldir := seedLedger(t, 100e6, 100e6, 100e6, 100e6, 200e6)
	l, err := ledger.Open(ldir)
	if err != nil {
		t.Fatal(err)
	}
	newest := l.Index.Entries[len(l.Index.Entries)-1]

	out, err := runCLI(t, "gate", "-ledger", ldir)
	if got := perf.ExitCode(err); got != perf.ExitDrift {
		t.Fatalf("gate on doubled entry: exit %d (%v), want %d\n%s", got, err, perf.ExitDrift, out)
	}
	for _, want := range []string{"perf-drift", "synthetic/op.wall_ns", newest.Digest[:12]} {
		if !strings.Contains(out, want) {
			t.Errorf("gate diagnostic missing %q:\n%s", want, out)
		}
	}
	if err == nil || !strings.Contains(err.Error(), "synthetic/op.wall_ns") {
		t.Errorf("gate error does not name the path: %v", err)
	}
}

// TestGateAttributesEnvOnlyChange pins the flip side: the same doubled
// timing under a different go version exits 0, with the change attributed
// field-by-field instead of failed.
func TestGateAttributesEnvOnlyChange(t *testing.T) {
	dir := t.TempDir()
	ldir := filepath.Join(dir, "ledger")
	var paths []string
	for i, w := range []float64{100e6, 100e6, 100e6} {
		paths = append(paths, writePack(t, dir, int64((i+1)*1000), fixedEnv(), w))
	}
	envB := fixedEnv()
	envB.GoVersion = "go1.25.0"
	paths = append(paths, writePack(t, dir, 4000, envB, 200e6))
	if out, err := runCLI(t, append([]string{"append", "-ledger", ldir}, paths...)...); err != nil {
		t.Fatalf("append: %v\n%s", err, out)
	}

	out, err := runCLI(t, "gate", "-ledger", ldir)
	if err != nil {
		t.Fatalf("gate on env-only change: exit %d (%v), want 0\n%s", perf.ExitCode(err), err, out)
	}
	for _, want := range []string{"attribution", "go_version", "go1.24.0 -> go1.25.0", "verdict: ok"} {
		if !strings.Contains(out, want) {
			t.Errorf("gate attribution missing %q:\n%s", want, out)
		}
	}
}

// TestTrendGoldenJSON pins `anonstat trend -json` byte-for-byte: the
// document is derived purely from ledger contents, so the same packs must
// reproduce the same bytes on every machine. Regenerate with -update.
func TestTrendGoldenJSON(t *testing.T) {
	ldir := seedLedger(t, 100e6, 100e6, 100e6, 200e6, 200e6)

	out1, err := runCLI(t, "trend", "-ledger", ldir, "-json")
	if err != nil {
		t.Fatalf("trend -json: %v", err)
	}
	out2, err := runCLI(t, "trend", "-ledger", ldir, "-json")
	if err != nil {
		t.Fatal(err)
	}
	if out1 != out2 {
		t.Error("trend -json is not byte-stable across runs")
	}

	golden := filepath.Join("testdata", "trend_golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(out1), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run `go test ./cmd/anonstat -run TrendGolden -update` to create it)", err)
	}
	if out1 != string(want) {
		t.Errorf("trend -json diverges from golden file\ngot:\n%s\nwant:\n%s", out1, want)
	}
	// The golden trajectory must include the sustained changepoint.
	if !strings.Contains(out1, `"changepoint":`) {
		t.Errorf("golden trend lacks a changepoint:\n%s", out1)
	}
}

func TestTrendTable(t *testing.T) {
	ldir := seedLedger(t, 100e6, 100e6, 100e6, 200e6, 200e6)
	out, err := runCLI(t, "trend", "-ledger", ldir)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "synthetic/op") || !strings.Contains(out, "changepoint@") {
		t.Errorf("trend table missing benchmark or changepoint:\n%s", out)
	}
}

func TestExitContract(t *testing.T) {
	if _, err := runCLI(t, "bogus"); perf.ExitCode(err) != perf.ExitInvalid {
		t.Errorf("unknown command: exit %d, want %d", perf.ExitCode(err), perf.ExitInvalid)
	}
	if _, err := runCLI(t, "gate"); perf.ExitCode(err) != perf.ExitInvalid {
		t.Errorf("gate without -ledger: exit %d, want %d", perf.ExitCode(err), perf.ExitInvalid)
	}
	if _, err := runCLI(t); perf.ExitCode(err) != perf.ExitInvalid {
		t.Errorf("no command: exit %d, want %d", perf.ExitCode(err), perf.ExitInvalid)
	}
	if _, err := runCLI(t, "help"); err != nil {
		t.Errorf("help: %v", err)
	}
	// Appending garbage is invalid input, and a tampered pack is a
	// verification failure — distinct codes.
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"schema":"nope"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := runCLI(t, "append", "-ledger", filepath.Join(dir, "l"), bad); perf.ExitCode(err) != perf.ExitInvalid {
		t.Errorf("append garbage: exit %d, want %d", perf.ExitCode(err), perf.ExitInvalid)
	}
	p := writePack(t, dir, 1000, fixedEnv(), 100e6)
	raw, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(p, bytes.Replace(raw, []byte("100000000"), []byte("100000001"), 1), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := runCLI(t, "append", "-ledger", filepath.Join(dir, "l"), p); perf.ExitCode(err) != perf.ExitVerification {
		t.Errorf("append tampered: exit %d, want %d", perf.ExitCode(err), perf.ExitVerification)
	}
}
