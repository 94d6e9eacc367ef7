package perf

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// packWith builds a single-benchmark pack with the given wall samples.
func packWith(name string, wall []float64) *Pack {
	return &Pack{
		Schema: Schema, Version: Version, Suite: "synthetic", Reps: len(wall),
		Benchmarks: []Benchmark{{
			Name: name,
			Metrics: map[string]Series{
				MetricWallNS: NewSeries("ns", wall),
			},
		}},
	}
}

func verdictOf(t *testing.T, d *Diff, bench, metric string) Verdict {
	t.Helper()
	for _, r := range d.Rows {
		if r.Benchmark == bench && r.Metric == metric {
			return r.Verdict
		}
	}
	t.Fatalf("no row for %s/%s in %+v", bench, metric, d.Rows)
	return ""
}

func TestCompareNoDrift(t *testing.T) {
	// ±10% jitter around 100 ms: well inside the 25% envelope.
	base := packWith("s/b", []float64{100e6, 102e6, 98e6, 101e6, 99e6})
	cur := packWith("s/b", []float64{108e6, 95e6, 104e6, 99e6, 102e6})
	d, err := Compare(base, cur, CompareOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := verdictOf(t, d, "s/b", MetricWallNS); got != VerdictOK {
		t.Errorf("verdict = %s, want ok", got)
	}
	if !d.OK() {
		t.Errorf("diff not OK: %+v", d)
	}
}

func TestCompareRegression(t *testing.T) {
	base := packWith("s/b", []float64{100e6, 102e6, 98e6})
	cur := packWith("s/b", []float64{200e6, 205e6, 198e6}) // doubled
	d, err := Compare(base, cur, CompareOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := verdictOf(t, d, "s/b", MetricWallNS); got != VerdictDrifted {
		t.Errorf("verdict = %s, want drifted", got)
	}
	if d.OK() || d.Drifted != 1 {
		t.Errorf("gate passed on a 2x regression: %+v", d)
	}
}

func TestCompareImprovement(t *testing.T) {
	base := packWith("s/b", []float64{200e6, 205e6, 198e6})
	cur := packWith("s/b", []float64{100e6, 102e6, 98e6})
	d, err := Compare(base, cur, CompareOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := verdictOf(t, d, "s/b", MetricWallNS); got != VerdictImproved {
		t.Errorf("verdict = %s, want improved", got)
	}
	if !d.OK() || d.Improved != 1 {
		t.Errorf("improvement failed the gate: %+v", d)
	}
}

func TestCompareMADWidensEnvelope(t *testing.T) {
	// A very noisy baseline (MAD 50 ms on a 100 ms median): a +35% shift
	// that would trip the 25% relative envelope stays within 4·MAD.
	base := packWith("s/b", []float64{50e6, 100e6, 150e6, 40e6, 160e6})
	cur := packWith("s/b", []float64{135e6, 135e6, 135e6})
	d, err := Compare(base, cur, CompareOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := verdictOf(t, d, "s/b", MetricWallNS); got != VerdictOK {
		t.Errorf("verdict = %s, want ok (MAD envelope)", got)
	}
}

func TestCompareAbsFloorShieldsMicrobenchmarks(t *testing.T) {
	// 200 µs -> 600 µs is 3x relative but under the 2 ms absolute floor.
	base := packWith("s/b", []float64{200e3, 210e3, 190e3})
	cur := packWith("s/b", []float64{600e3, 610e3, 590e3})
	d, err := Compare(base, cur, CompareOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := verdictOf(t, d, "s/b", MetricWallNS); got != VerdictOK {
		t.Errorf("verdict = %s, want ok (abs floor)", got)
	}
	// The floor is what holds the band open: relative and MAD terms alone
	// (a metric without a floor) give 50 µs.
	var e Envelope
	if w := e.Width(MetricWallNS, 200e3, 10e3); w != 2e6 {
		t.Errorf("wall_ns width = %g, want the 2e6 floor", w)
	}
	if w := e.Width(MetricHeapBytes, 200e3, 10e3); w != 50e3 {
		t.Errorf("unfloored width = %g, want 5e4", w)
	}
}

func TestEnvelopeWidth(t *testing.T) {
	for _, tc := range []struct {
		name        string
		env         Envelope
		metric      string
		median, mad float64
		want        float64
	}{
		{"relative band", Envelope{}, MetricWallNS, 100e6, 0, 25e6},
		{"custom relative band", Envelope{RelThreshold: 4}, MetricWallNS, 100e6, 0, 400e6},
		{"MAD widens", Envelope{}, MetricWallNS, 100e6, 10e6, 40e6},
		{"NaN MAD ignored", Envelope{}, MetricWallNS, 100e6, math.NaN(), 25e6},
		{"allocs floor", Envelope{}, MetricAllocs, 100, 0, 256},
		{"negative median", Envelope{}, MetricHeapBytes, -8e6, 0, 2e6},
	} {
		if got := tc.env.Width(tc.metric, tc.median, tc.mad); got != tc.want {
			t.Errorf("%s: width = %g, want %g", tc.name, got, tc.want)
		}
	}
	if w := (Envelope{}).Width(MetricWallNS, math.NaN(), 0); !math.IsNaN(w) {
		t.Errorf("NaN median: width = %g, want NaN", w)
	}
}

func TestCompareNaNIsInvalid(t *testing.T) {
	base := packWith("s/b", []float64{100e6, math.NaN(), 98e6})
	cur := packWith("s/b", []float64{100e6, 101e6, 99e6})
	d, err := Compare(base, cur, CompareOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := verdictOf(t, d, "s/b", MetricWallNS); got != VerdictInvalid {
		t.Errorf("NaN baseline verdict = %s, want invalid", got)
	}
	if d.OK() {
		t.Error("gate passed with a NaN median")
	}
	// NaN on the current side is equally invalid.
	d, err = Compare(cur, base, CompareOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := verdictOf(t, d, "s/b", MetricWallNS); got != VerdictInvalid {
		t.Errorf("NaN current verdict = %s, want invalid", got)
	}
}

func TestCompareZeroBaseline(t *testing.T) {
	// Zero baseline: relative envelope is zero, so only the absolute
	// floor separates noise from drift.
	base := packWith("s/b", []float64{0, 0, 0})
	within := packWith("s/b", []float64{1e6, 1e6, 1e6})    // under the 2 ms floor
	beyond := packWith("s/b", []float64{50e6, 50e6, 50e6}) // far past it
	d, err := Compare(base, within, CompareOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := verdictOf(t, d, "s/b", MetricWallNS); got != VerdictOK {
		t.Errorf("zero baseline within floor = %s, want ok", got)
	}
	if r := d.Rows[0]; !math.IsNaN(r.Ratio) {
		t.Errorf("ratio against zero baseline = %v, want NaN", r.Ratio)
	}
	d, err = Compare(base, beyond, CompareOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := verdictOf(t, d, "s/b", MetricWallNS); got != VerdictDrifted {
		t.Errorf("zero baseline past floor = %s, want drifted", got)
	}
}

func TestCompareMissingBenchmarkFailsGate(t *testing.T) {
	base := packWith("s/b", []float64{100e6})
	base.Benchmarks = append(base.Benchmarks, Benchmark{
		Name:    "s/dropped",
		Metrics: map[string]Series{MetricWallNS: NewSeries("ns", []float64{1e6})},
	})
	cur := packWith("s/b", []float64{100e6})
	d, err := Compare(base, cur, CompareOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if d.OK() || len(d.Missing) != 1 || d.Missing[0] != "s/dropped" {
		t.Errorf("dropped benchmark not flagged: %+v", d)
	}
	// New benchmarks in cur are fine.
	d, err = Compare(cur, base, CompareOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !d.OK() {
		t.Errorf("new benchmark failed the gate: %+v", d)
	}
}

func TestCompareUngatedMetricsAreInfo(t *testing.T) {
	base := packWith("s/b", []float64{100e6})
	cur := packWith("s/b", []float64{100e6})
	// A 100x goroutine regression in an ungated metric must not gate.
	base.Benchmarks[0].Metrics[MetricGoroutines] = NewSeries("count", []float64{4})
	cur.Benchmarks[0].Metrics[MetricGoroutines] = NewSeries("count", []float64{400})
	d, err := Compare(base, cur, CompareOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := verdictOf(t, d, "s/b", MetricGoroutines); got != VerdictInfo {
		t.Errorf("ungated verdict = %s, want info", got)
	}
	if !d.OK() {
		t.Errorf("info metric failed the gate: %+v", d)
	}
}

func TestDiffTableRendersDrift(t *testing.T) {
	base := packWith("s/b", []float64{100e6})
	cur := packWith("s/b", []float64{220e6})
	d, err := Compare(base, cur, CompareOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	d.WriteTable(&buf, false)
	out := buf.String()
	for _, want := range []string{"s/b", "wall_ns", "drifted", "2.20x", "1 drifted"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
}

func TestMedianMAD(t *testing.T) {
	if got := Median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	if got := Median([]float64{4, 1, 2, 3}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	if got := Median(nil); !math.IsNaN(got) {
		t.Errorf("median empty = %v, want NaN", got)
	}
	if got := MAD([]float64{1, 1, 1}); got != 0 {
		t.Errorf("MAD constant = %v", got)
	}
	if got := MAD([]float64{1, 2, 9}); got != 1 {
		t.Errorf("MAD = %v, want 1", got)
	}
}
