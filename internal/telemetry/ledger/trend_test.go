package ledger

import (
	"bytes"
	"strings"
	"testing"

	"microdata/internal/telemetry/perf"
)

// trendLedger appends one synthetic perf pack per wall level, all under env,
// creation-stamped 1000, 2000, ...
func trendLedger(t *testing.T, env perf.Env, walls ...float64) *Ledger {
	t.Helper()
	l, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range walls {
		mustAppend(t, l, perfPackBytes(t, int64((i+1)*1000), env, w))
	}
	return l
}

func TestExtractTrendSeries(t *testing.T) {
	l := trendLedger(t, testEnv(), 100e6, 110e6, 90e6)
	tr, err := ExtractTrend(l, TrendOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if tr.PerfEntries != 3 || len(tr.EnvFingerprints) != 1 {
		t.Fatalf("trend header = %d entries, %d fingerprints", tr.PerfEntries, len(tr.EnvFingerprints))
	}
	// One benchmark x default metrics (wall_ns, allocs, heap_bytes).
	if len(tr.Series) != 3 {
		t.Fatalf("%d series, want 3", len(tr.Series))
	}
	var wall *Series
	for i := range tr.Series {
		if tr.Series[i].Metric == perf.MetricWallNS {
			wall = &tr.Series[i]
		}
	}
	if wall == nil {
		t.Fatal("no wall_ns series")
	}
	if len(wall.Points) != 3 || wall.Median != 100e6 || wall.Last != 90e6 {
		t.Errorf("wall series: %d points, median %g, last %g", len(wall.Points), wall.Median, wall.Last)
	}
	if wall.Changepoint != nil {
		t.Errorf("noise-level series produced changepoint %+v", wall.Changepoint)
	}
	// Points must be chronological and carry the entry digests.
	for i, p := range wall.Points {
		if p.CreatedUnixMS != int64((i+1)*1000) || p.Digest == "" {
			t.Errorf("point %d = %+v", i, p)
		}
	}
}

func TestTrendChangepointSustainedShift(t *testing.T) {
	// Three runs at 100ms, then a sustained regression to 200ms.
	l := trendLedger(t, testEnv(), 100e6, 100e6, 100e6, 200e6, 200e6, 200e6)
	tr, err := ExtractTrend(l, TrendOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var wall *Series
	for i := range tr.Series {
		if tr.Series[i].Metric == perf.MetricWallNS {
			wall = &tr.Series[i]
		}
	}
	cp := wall.Changepoint
	if cp == nil {
		t.Fatal("sustained 2x shift produced no changepoint")
	}
	if cp.Index != 3 {
		t.Errorf("changepoint at index %d, want 3 (first 200ms entry)", cp.Index)
	}
	if cp.Digest != wall.Points[3].Digest {
		t.Errorf("changepoint digest %s != point digest %s", cp.Digest, wall.Points[3].Digest)
	}
	if cp.Baseline != 100e6 {
		t.Errorf("changepoint baseline %g, want 1e8", cp.Baseline)
	}
}

func TestTrendLoneOutlierIsNotAChangepoint(t *testing.T) {
	l := trendLedger(t, testEnv(), 100e6, 100e6, 200e6, 100e6, 100e6)
	tr, err := ExtractTrend(l, TrendOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range tr.Series {
		if s.Changepoint != nil {
			t.Errorf("%s.%s: lone outlier registered as changepoint %+v", s.Benchmark, s.Metric, s.Changepoint)
		}
	}
}

func TestTrendEnvShiftIsAttributionNotChangepoint(t *testing.T) {
	// The same 2x level shift, but coinciding with a toolchain change: the
	// groups are scanned independently, so no changepoint registers.
	envB := testEnv()
	envB.GoVersion = "go1.25.0"
	l, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range []float64{100e6, 100e6, 100e6} {
		mustAppend(t, l, perfPackBytes(t, int64((i+1)*1000), testEnv(), w))
	}
	for i, w := range []float64{200e6, 200e6, 200e6} {
		mustAppend(t, l, perfPackBytes(t, int64((i+4)*1000), envB, w))
	}
	tr, err := ExtractTrend(l, TrendOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.EnvFingerprints) != 2 {
		t.Fatalf("%d fingerprints, want 2", len(tr.EnvFingerprints))
	}
	for _, s := range tr.Series {
		if s.Changepoint != nil {
			t.Errorf("%s.%s: cross-environment shift registered as changepoint", s.Benchmark, s.Metric)
		}
	}
}

func TestTrendOptionsFilter(t *testing.T) {
	l := trendLedger(t, testEnv(), 100e6, 110e6, 120e6)
	tr, err := ExtractTrend(l, TrendOptions{
		Metrics: []string{perf.MetricWallNS}, Benchmark: "synthetic", Last: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if tr.PerfEntries != 2 || len(tr.Series) != 1 || len(tr.Series[0].Points) != 2 {
		t.Errorf("filtered trend: %d entries, %d series", tr.PerfEntries, len(tr.Series))
	}
	tr2, err := ExtractTrend(l, TrendOptions{Benchmark: "no-such-benchmark"})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr2.Series) != 0 {
		t.Errorf("bogus filter kept %d series", len(tr2.Series))
	}
}

func TestTrendCanonicalJSONIsByteStable(t *testing.T) {
	build := func() []byte {
		t.Helper()
		l := trendLedger(t, testEnv(), 100e6, 100e6, 100e6, 200e6, 200e6)
		tr, err := ExtractTrend(l, TrendOptions{})
		if err != nil {
			t.Fatal(err)
		}
		canon, err := tr.MarshalCanonical()
		if err != nil {
			t.Fatal(err)
		}
		return canon
	}
	a, b := build(), build()
	if !bytes.Equal(a, b) {
		t.Error("trend canonical JSON differs across identical ledgers")
	}
	if a[len(a)-1] != '\n' {
		t.Error("canonical trend lacks trailing newline")
	}
	s := string(a)
	for _, want := range []string{`"schema":"` + TrendSchema + `"`, `"changepoint":`, `"env_fingerprints":`} {
		if !strings.Contains(s, want) {
			t.Errorf("canonical trend missing %s", want)
		}
	}
}

func TestTrendWriteTable(t *testing.T) {
	l := trendLedger(t, testEnv(), 100e6, 100e6, 100e6, 200e6, 200e6)
	tr, err := ExtractTrend(l, TrendOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	tr.WriteTable(&buf)
	out := buf.String()
	if !strings.Contains(out, "synthetic/op") || !strings.Contains(out, "changepoint@") {
		t.Errorf("trend table missing benchmark or changepoint marker:\n%s", out)
	}
	if !strings.ContainsAny(out, "▁▂▃▄▅▆▇█") {
		t.Errorf("trend table has no sparkline:\n%s", out)
	}
}

func TestEnvelopeWidth(t *testing.T) {
	var e perf.Envelope
	// Relative band dominates.
	base, width := band(e, perf.MetricWallNS, []float64{100e6, 100e6, 100e6})
	if base != 100e6 || width != 25e6 {
		t.Errorf("width = (%g, %g), want (1e8, 2.5e7)", base, width)
	}
	// Absolute floor dominates for small values.
	if _, width := band(e, perf.MetricWallNS, []float64{100, 100}); width != 2e6 {
		t.Errorf("floored width = %g, want 2e6", width)
	}
	// MAD widens a noisy history beyond the relative band.
	_, width = band(e, perf.MetricAllocs, []float64{1000, 2000, 3000})
	if width <= 0.25*2000 {
		t.Errorf("noisy width = %g, want > rel band %g", width, 0.25*2000)
	}
}
