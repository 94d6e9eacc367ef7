package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"

	"microdata/internal/telemetry/ledger"
	"microdata/internal/telemetry/perf"
)

// writeBenchPack seals a synthetic pack holding the given benchmarks and
// writes it under dir.
func writeBenchPack(t *testing.T, dir, name string, env perf.Env, benches ...perf.Benchmark) string {
	t.Helper()
	p := &perf.Pack{
		Schema: perf.Schema, Version: perf.Version, Suite: "synthetic", Reps: 3,
		CreatedUnixMS: 1000, Env: env, Benchmarks: benches,
	}
	if err := p.Seal(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := perf.WriteFile(path, p); err != nil {
		t.Fatal(err)
	}
	return path
}

// wallPack writes a one-benchmark pack with the given wall samples.
func wallPack(t *testing.T, dir, name string, env perf.Env, wall ...float64) string {
	t.Helper()
	return writeBenchPack(t, dir, name, env, perf.Benchmark{
		Name:    "synthetic/op",
		Metrics: map[string]perf.Series{perf.MetricWallNS: perf.NewSeries("ns", wall)},
	})
}

func exitOf(t *testing.T, args ...string) int {
	t.Helper()
	_, err := runCLI(t, args...)
	return perf.ExitCode(err)
}

func TestDiffExitCodeContract(t *testing.T) {
	dir := t.TempDir()
	base := wallPack(t, dir, "base.json", perf.Env{}, 100e6, 102e6, 98e6)
	same := wallPack(t, dir, "same.json", perf.Env{}, 101e6, 99e6, 100e6)
	worse := wallPack(t, dir, "worse.json", perf.Env{}, 200e6, 205e6, 198e6)

	notAPack := filepath.Join(dir, "other.json")
	if err := os.WriteFile(notAPack, []byte(`{"schema":"something-else","version":1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		args []string
		want int
	}{
		{"identical packs", []string{base, same}, perf.ExitOK},
		{"doubled timings", []string{base, worse}, perf.ExitDrift},
		{"one arg", []string{base}, perf.ExitInvalid},
		{"missing file", []string{base, filepath.Join(dir, "missing.json")}, perf.ExitInvalid},
		{"wrong schema", []string{base, notAPack}, perf.ExitInvalid},
		{"unknown flag", []string{"-mad-factor", "4", base, same}, perf.ExitInvalid},
		{"relative threshold widens", []string{"-rel-threshold", "4", base, worse}, perf.ExitOK},
	} {
		if got := exitOf(t, append([]string{"diff"}, tc.args...)...); got != tc.want {
			t.Errorf("%s: exit %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestDiffTamperedPackFailsVerification(t *testing.T) {
	dir := t.TempDir()
	base := wallPack(t, dir, "base.json", perf.Env{}, 100e6, 102e6, 98e6)
	cur := wallPack(t, dir, "cur.json", perf.Env{}, 101e6, 99e6, 100e6)
	raw, err := os.ReadFile(cur)
	if err != nil {
		t.Fatal(err)
	}
	if out, err := runCLI(t, "diff", "-verify-only", cur); err != nil || out != cur+": manifest ok\n" {
		t.Errorf("-verify-only on a sealed pack: %q, %v", out, err)
	}

	// Hand-edit one timing digit after sealing.
	digit := bytes.Replace(raw, []byte("99000000"), []byte("99000001"), 1)
	if bytes.Equal(digit, raw) {
		t.Fatalf("tamper target not found in %s", raw)
	}
	for _, tc := range []struct {
		name string
		raw  []byte
		want int
	}{
		{"newline tail", append(bytes.Clone(raw), '\n'), perf.ExitOK},
		{"edited digit", digit, perf.ExitVerification},
		{"JSON object tail", append(bytes.Clone(raw), `{"suite":"evil"}`...), perf.ExitVerification},
		{"garbage tail", append(bytes.Clone(raw), ` garbage!!`...), perf.ExitVerification},
	} {
		if err := os.WriteFile(cur, tc.raw, 0o644); err != nil {
			t.Fatal(err)
		}
		if got := exitOf(t, "diff", base, cur); got != tc.want {
			t.Errorf("%s: diff exit %d, want %d", tc.name, got, tc.want)
		}
		if got := exitOf(t, "diff", "-verify-only", cur); got != tc.want {
			t.Errorf("%s: -verify-only exit %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestDiffCustomGate(t *testing.T) {
	dir := t.TempDir()
	mk := func(name string, goroutines float64) string {
		return writeBenchPack(t, dir, name, perf.Env{}, perf.Benchmark{
			Name: "synthetic/op",
			Metrics: map[string]perf.Series{
				perf.MetricWallNS:     perf.NewSeries("ns", []float64{100e6}),
				perf.MetricGoroutines: perf.NewSeries("count", []float64{goroutines}),
			},
		})
	}
	base := mk("base.json", 4)
	cur := mk("cur.json", 400)

	// Goroutines are ungated by default: no drift.
	if got := exitOf(t, "diff", base, cur); got != perf.ExitOK {
		t.Errorf("default gate: exit %d, want 0", got)
	}
	// Gating on goroutines turns the 100x blowup into drift.
	if got := exitOf(t, "diff", "-gate", "goroutines", base, cur); got != perf.ExitDrift {
		t.Errorf("-gate goroutines: exit %d, want %d", got, perf.ExitDrift)
	}
	if got := exitOf(t, "diff", "-gate", " , ", base, cur); got != perf.ExitInvalid {
		t.Errorf("-gate with no metrics: exit %d, want %d", got, perf.ExitInvalid)
	}
}

func TestDiffLedgerBaseline(t *testing.T) {
	dir := t.TempDir()
	ldir := filepath.Join(dir, "ledger")
	env := perf.Env{GoVersion: "go1.24.0", GOOS: "linux", GOARCH: "amd64", GOMAXPROCS: 1, NumCPU: 1, Seed: 1, N: 400, K: 5}
	otherEnv := env
	otherEnv.GoVersion = "go1.23.0"

	l, err := ledger.Open(ldir)
	if err != nil {
		t.Fatal(err)
	}
	// An env-matching baseline at 100ms and a newer foreign-env entry at
	// 50ms: fingerprint matching must pick the 100ms one.
	for _, pk := range []struct {
		env     perf.Env
		created int64
		wall    float64
	}{
		{env, 1000, 100e6},
		{otherEnv, 2000, 50e6},
	} {
		p := &perf.Pack{
			Schema: perf.Schema, Version: perf.Version, Suite: "synthetic", Reps: 1,
			CreatedUnixMS: pk.created, Env: pk.env,
			Benchmarks: []perf.Benchmark{{
				Name:    "synthetic/op",
				Metrics: map[string]perf.Series{perf.MetricWallNS: perf.NewSeries("ns", []float64{pk.wall})},
			}},
		}
		if err := p.Seal(); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := perf.Write(&buf, p); err != nil {
			t.Fatal(err)
		}
		if _, _, err := l.Append(buf.Bytes()); err != nil {
			t.Fatal(err)
		}
	}

	// Current pack in the matching env at ~100ms: against the env-matching
	// 100ms baseline this is no drift. (Against the newer foreign 50ms
	// entry it would be a 2x regression, so a pass proves the fingerprint
	// match picked the right baseline.)
	cur := wallPack(t, dir, "cur.json", env, 101e6)
	if got := exitOf(t, "diff", "-baseline-ledger", ldir, cur); got != perf.ExitOK {
		t.Errorf("env-matching ledger baseline: exit %d, want 0", got)
	}

	// A genuinely regressed current pack still gates.
	worse := wallPack(t, dir, "worse.json", env, 200e6)
	if got := exitOf(t, "diff", "-baseline-ledger", ldir, worse); got != perf.ExitDrift {
		t.Errorf("regressed against ledger baseline: exit %d, want %d", got, perf.ExitDrift)
	}

	// No env match: falls back to the newest entry (50ms) rather than
	// erroring, so the same current pack now reads as drift.
	thirdEnv := env
	thirdEnv.GoVersion = "go1.22.0"
	other := wallPack(t, dir, "other.json", thirdEnv, 101e6)
	if got := exitOf(t, "diff", "-baseline-ledger", ldir, other); got != perf.ExitDrift {
		t.Errorf("fallback baseline: exit %d, want %d", got, perf.ExitDrift)
	}

	// Usage errors: two positional args with -baseline-ledger, empty ledger.
	if got := exitOf(t, "diff", "-baseline-ledger", ldir, cur, cur); got != perf.ExitInvalid {
		t.Errorf("two args with -baseline-ledger: exit %d, want %d", got, perf.ExitInvalid)
	}
	if got := exitOf(t, "diff", "-baseline-ledger", filepath.Join(dir, "empty"), cur); got != perf.ExitInvalid {
		t.Errorf("empty ledger: exit %d, want %d", got, perf.ExitInvalid)
	}
}

// goldenDiffPacks writes the fixed base/current pair behind
// testdata/diff_golden.json: a drifted gated metric, an ungated info row,
// a zero baseline (NaN ratio), a missing benchmark and an env change.
func goldenDiffPacks(t *testing.T, dir string) (base, cur string) {
	t.Helper()
	series := func(unit string, v ...float64) perf.Series { return perf.NewSeries(unit, v) }
	env := fixedEnv()
	base = writeBenchPack(t, dir, "base.json", env,
		perf.Benchmark{Name: "s/a", Metrics: map[string]perf.Series{
			perf.MetricWallNS:     series("ns", 100e6, 102e6, 98e6),
			perf.MetricAllocs:     series("count", 1000, 1000, 1001),
			perf.MetricGoroutines: series("count", 4, 4, 4),
		}},
		perf.Benchmark{Name: "s/b", Metrics: map[string]perf.Series{
			perf.MetricWallNS: series("ns", 0, 0, 0),
		}},
		perf.Benchmark{Name: "s/gone", Metrics: map[string]perf.Series{
			perf.MetricWallNS: series("ns", 5e6),
		}},
	)
	env.GoVersion = "go1.25.0"
	cur = writeBenchPack(t, dir, "cur.json", env,
		perf.Benchmark{Name: "s/a", Metrics: map[string]perf.Series{
			perf.MetricWallNS:     series("ns", 200e6, 205e6, 198e6),
			perf.MetricAllocs:     series("count", 1000, 1000, 1000),
			perf.MetricGoroutines: series("count", 8, 8, 8),
		}},
		perf.Benchmark{Name: "s/b", Metrics: map[string]perf.Series{
			perf.MetricWallNS: series("ns", 1e6, 1e6, 1e6),
		}},
	)
	return base, cur
}

// TestDiffJSONOutput pins `anonstat diff -json` byte-for-byte against
// testdata/diff_golden.json (regenerate with -update).
func TestDiffJSONOutput(t *testing.T) {
	base, cur := goldenDiffPacks(t, t.TempDir())
	out1, err := runCLI(t, "diff", "-json", base, cur)
	if got := perf.ExitCode(err); got != perf.ExitDrift {
		t.Fatalf("golden pair: exit %d (%v), want %d", got, err, perf.ExitDrift)
	}
	out2, _ := runCLI(t, "diff", "-json", base, cur)
	if out1 != out2 {
		t.Error("canonical JSON output is not byte-stable")
	}
	golden := filepath.Join("testdata", "diff_golden.json")
	if *update {
		if err := os.WriteFile(golden, []byte(out1), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if out1 != string(want) {
		t.Errorf("diff -json diverges from golden file\ngot:\n%s\nwant:\n%s", out1, want)
	}
	var doc map[string]any
	if err := json.Unmarshal([]byte(out1), &doc); err != nil {
		t.Fatalf("-json output is not JSON: %v\n%s", err, out1)
	}
	if doc["drifted"] != float64(1) || len(doc["missing"].([]any)) != 1 {
		t.Errorf("drifted = %v, missing = %v, want 1 and [s/gone]", doc["drifted"], doc["missing"])
	}

	// Real packs carry NaN ratios (zero baseline medians) and NaN MADs
	// (single-rep packs), which encoding/json rejects as raw floats — the
	// writer must emit the pinned string spellings instead of failing.
	d := &perf.Diff{Rows: []perf.MetricDiff{{
		Benchmark: "synthetic/op", Metric: perf.MetricWallNS,
		Ratio: math.NaN(), BaseMAD: math.Inf(1), Verdict: perf.VerdictOK,
	}}}
	var nanOut bytes.Buffer
	if err := writeDiffJSON(&nanOut, d); err != nil {
		t.Fatalf("writeDiffJSON with NaN ratio: %v", err)
	}
	if err := json.Unmarshal(nanOut.Bytes(), &doc); err != nil {
		t.Fatalf("NaN output is not JSON: %v\n%s", err, nanOut.String())
	}
	row := doc["rows"].([]any)[0].(map[string]any)
	if row["ratio"] != "NaN" || row["base_mad"] != "+Inf" {
		t.Errorf("non-finite spellings: ratio=%v base_mad=%v", row["ratio"], row["base_mad"])
	}
}
