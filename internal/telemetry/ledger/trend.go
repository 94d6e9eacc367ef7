package ledger

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"

	"microdata/internal/telemetry/perf"
	"microdata/internal/telemetry/resultpack"
)

// TrendSchema identifies the canonical-JSON trend document `anonstat trend
// -json` emits; TrendVersion is bumped on any shape change.
const (
	TrendSchema  = "microdata/ledger-trend"
	TrendVersion = 1
)

// DefaultTrendMetrics is the metric set trend extraction follows per
// benchmark: the gated pair plus live heap, the series the ROADMAP's
// longitudinal comparisons care about.
var DefaultTrendMetrics = []string{perf.MetricWallNS, perf.MetricAllocs, perf.MetricHeapBytes}

// band returns the history median and the perf.Envelope half-width
// around it — the rolling noise band trend changepoints and the gate test
// against.
func band(e perf.Envelope, metric string, history []float64) (base, width float64) {
	base = perf.Median(history)
	return base, e.Width(metric, base, perf.MAD(history))
}

// Point is one ledger entry's contribution to a series: the pack's
// recorded median (and within-run MAD) for one benchmark metric.
type Point struct {
	Digest         string
	CreatedUnixMS  int64
	EnvFingerprint string
	GitRevision    string
	Value          float64
	MAD            float64
}

// Changepoint marks a sustained excursion: from Index onward, every
// same-fingerprint point exceeds the envelope computed over the points
// before it, and at least TrendOptions.Sustain points do so. A single
// noisy run therefore never registers; a genuine regression that persists
// does.
type Changepoint struct {
	// Digest names the first sustained-excursion entry.
	Digest string
	// Index is the changepoint's position within the series' points.
	Index int
	// EnvFingerprint is the history group the excursion happened inside.
	EnvFingerprint string
	// Baseline and Width describe the envelope the excursion broke out of;
	// Value is the first excursion value.
	Baseline float64
	Width    float64
	Value    float64
}

// Series is one benchmark metric's trajectory across the ledger.
type Series struct {
	Benchmark string
	Metric    string
	Unit      string
	Points    []Point
	// Median and MAD are the robust location/scale of the point values
	// across entries; Last is the newest value.
	Median float64
	MAD    float64
	Last   float64
	// Changepoint is nil when no sustained excursion was detected.
	Changepoint *Changepoint
}

// Trend is the extracted trajectory document.
type Trend struct {
	// PerfEntries and ResultEntries count the ledger entries consumed.
	PerfEntries   int
	ResultEntries int
	// EnvFingerprints lists the distinct fingerprints in order of first
	// appearance — more than one means the history spans environments.
	EnvFingerprints []string
	// Series is sorted by (benchmark, metric).
	Series []Series
}

// TrendOptions tunes extraction.
type TrendOptions struct {
	perf.Envelope
	// Metrics selects the metric series per benchmark (default
	// DefaultTrendMetrics).
	Metrics []string
	// Benchmark, when non-empty, keeps only benchmarks containing it.
	Benchmark string
	// Sustain is the minimum run of consecutive excursions that registers
	// as a changepoint (default 2 — a lone outlier is noise).
	Sustain int
	// Last, when > 0, keeps only the newest Last perf entries.
	Last int
}

func (o TrendOptions) withDefaults() TrendOptions {
	if o.Metrics == nil {
		o.Metrics = DefaultTrendMetrics
	}
	if o.Sustain <= 0 {
		o.Sustain = 2
	}
	return o
}

// ExtractTrend reads every perf pack in the ledger (verifying each
// manifest — a tampered pack surfaces as an ExitVerification error) and
// assembles the per-benchmark time series.
func ExtractTrend(l *Ledger, opts TrendOptions) (*Trend, error) {
	opts = opts.withDefaults()
	entries := l.Entries(KindPerf)
	if opts.Last > 0 && len(entries) > opts.Last {
		entries = entries[len(entries)-opts.Last:]
	}
	t := &Trend{PerfEntries: len(entries), ResultEntries: len(l.Entries(KindResult))}
	seenFP := map[string]bool{}
	type key struct{ bench, metric string }
	series := map[key]*Series{}
	for _, e := range entries {
		if !seenFP[e.EnvFingerprint] {
			seenFP[e.EnvFingerprint] = true
			t.EnvFingerprints = append(t.EnvFingerprints, e.EnvFingerprint)
		}
		pack, err := l.ReadPerf(e.Digest)
		if err != nil {
			return nil, err
		}
		for _, b := range pack.Benchmarks {
			if opts.Benchmark != "" && !strings.Contains(b.Name, opts.Benchmark) {
				continue
			}
			for _, metric := range opts.Metrics {
				s, ok := b.Metrics[metric]
				if !ok {
					continue
				}
				k := key{b.Name, metric}
				sr := series[k]
				if sr == nil {
					sr = &Series{Benchmark: b.Name, Metric: metric, Unit: s.Unit}
					series[k] = sr
				}
				sr.Points = append(sr.Points, Point{
					Digest: e.Digest, CreatedUnixMS: e.CreatedUnixMS,
					EnvFingerprint: e.EnvFingerprint, GitRevision: e.GitRevision,
					Value: s.Median, MAD: s.MAD,
				})
			}
		}
	}
	for _, sr := range series {
		values := make([]float64, len(sr.Points))
		for i, p := range sr.Points {
			values[i] = p.Value
		}
		sr.Median = perf.Median(values)
		sr.MAD = perf.MAD(values)
		sr.Last = values[len(values)-1]
		sr.Changepoint = detectChangepoint(sr, opts)
		t.Series = append(t.Series, *sr)
	}
	sort.Slice(t.Series, func(i, j int) bool {
		a, b := t.Series[i], t.Series[j]
		if a.Benchmark != b.Benchmark {
			return a.Benchmark < b.Benchmark
		}
		return a.Metric < b.Metric
	})
	return t, nil
}

// detectChangepoint scans each environment-fingerprint group of the series
// for the earliest index i (≥2 history points) where every later value in
// the group exceeds the envelope over the values before i, with at least
// opts.Sustain excursion points. Groups are scanned independently —
// a level shift that coincides with an environment change is attribution,
// not a changepoint. The most recent group's changepoint wins when several
// groups have one.
func detectChangepoint(sr *Series, opts TrendOptions) *Changepoint {
	groups := map[string][]int{}
	var order []string
	for i, p := range sr.Points {
		if _, ok := groups[p.EnvFingerprint]; !ok {
			order = append(order, p.EnvFingerprint)
		}
		groups[p.EnvFingerprint] = append(groups[p.EnvFingerprint], i)
	}
	var found *Changepoint
	for _, fp := range order {
		idxs := groups[fp]
		values := make([]float64, len(idxs))
		for j, i := range idxs {
			values[j] = sr.Points[i].Value
		}
		m := len(values)
		for i := 2; i <= m-opts.Sustain; i++ {
			base, width := band(opts.Envelope, sr.Metric, values[:i])
			sustained := true
			for j := i; j < m; j++ {
				if !(values[j] > base+width) {
					sustained = false
					break
				}
			}
			if sustained {
				found = &Changepoint{
					Digest: sr.Points[idxs[i]].Digest, Index: idxs[i],
					EnvFingerprint: fp, Baseline: base, Width: width, Value: values[i],
				}
				break
			}
		}
	}
	return found
}

// jsonFloat converts NaN-capable floats to the pinned resultpack spelling.
type jsonFloat = resultpack.Float

// MarshalCanonical renders the trend as the byte-stable canonical-JSON
// document behind `anonstat trend -json`: derived purely from ledger
// contents (no wall-clock), sorted keys, pinned NaN/±Inf spellings, one
// trailing newline.
func (t *Trend) MarshalCanonical() ([]byte, error) {
	type pointJSON struct {
		Digest         string    `json:"digest"`
		CreatedUnixMS  int64     `json:"created_unix_ms"`
		EnvFingerprint string    `json:"env_fingerprint"`
		GitRevision    string    `json:"git_revision,omitempty"`
		Value          jsonFloat `json:"value"`
		MAD            jsonFloat `json:"mad"`
	}
	type changepointJSON struct {
		Digest         string    `json:"digest"`
		Index          int       `json:"index"`
		EnvFingerprint string    `json:"env_fingerprint"`
		Baseline       jsonFloat `json:"baseline"`
		Width          jsonFloat `json:"width"`
		Value          jsonFloat `json:"value"`
	}
	type seriesJSON struct {
		Benchmark   string           `json:"benchmark"`
		Metric      string           `json:"metric"`
		Unit        string           `json:"unit,omitempty"`
		Points      []pointJSON      `json:"points"`
		Median      jsonFloat        `json:"median"`
		MAD         jsonFloat        `json:"mad"`
		Last        jsonFloat        `json:"last"`
		Changepoint *changepointJSON `json:"changepoint,omitempty"`
	}
	doc := struct {
		Schema          string       `json:"schema"`
		Version         int          `json:"version"`
		PerfEntries     int          `json:"perf_entries"`
		ResultEntries   int          `json:"result_entries"`
		EnvFingerprints []string     `json:"env_fingerprints,omitempty"`
		Series          []seriesJSON `json:"series"`
	}{Schema: TrendSchema, Version: TrendVersion, PerfEntries: t.PerfEntries,
		ResultEntries: t.ResultEntries, EnvFingerprints: t.EnvFingerprints}
	for _, s := range t.Series {
		sj := seriesJSON{
			Benchmark: s.Benchmark, Metric: s.Metric, Unit: s.Unit,
			Median: jsonFloat(s.Median), MAD: jsonFloat(s.MAD), Last: jsonFloat(s.Last),
		}
		for _, p := range s.Points {
			sj.Points = append(sj.Points, pointJSON{
				Digest: p.Digest, CreatedUnixMS: p.CreatedUnixMS,
				EnvFingerprint: p.EnvFingerprint, GitRevision: p.GitRevision,
				Value: jsonFloat(p.Value), MAD: jsonFloat(p.MAD),
			})
		}
		if cp := s.Changepoint; cp != nil {
			sj.Changepoint = &changepointJSON{
				Digest: cp.Digest, Index: cp.Index, EnvFingerprint: cp.EnvFingerprint,
				Baseline: jsonFloat(cp.Baseline), Width: jsonFloat(cp.Width), Value: jsonFloat(cp.Value),
			}
		}
		doc.Series = append(doc.Series, sj)
	}
	canon, err := perf.CanonicalMarshal(doc)
	if err != nil {
		return nil, err
	}
	return append(canon, '\n'), nil
}

// WriteTable renders the trend as a text table with one sparkline per
// series (chronological, min..max scaled within the series).
func (t *Trend) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "trajectory: %d perf entries, %d result entries, %d env fingerprint(s)\n",
		t.PerfEntries, t.ResultEntries, len(t.EnvFingerprints))
	if len(t.Series) == 0 {
		fmt.Fprintln(w, "no series (empty ledger or filtered out)")
		return
	}
	fmt.Fprintf(w, "%-48s %-11s %4s %12s %12s %8s  %s\n",
		"benchmark", "metric", "runs", "median", "last", "ratio", "trend")
	for _, s := range t.Series {
		values := make([]float64, len(s.Points))
		for i, p := range s.Points {
			values[i] = p.Value
		}
		ratio := "-"
		if s.Median != 0 && !math.IsNaN(s.Median) && !math.IsNaN(s.Last) {
			ratio = fmt.Sprintf("%.2fx", s.Last/s.Median)
		}
		mark := ""
		if s.Changepoint != nil {
			mark = fmt.Sprintf("  changepoint@%s", s.Changepoint.Digest[:12])
		}
		fmt.Fprintf(w, "%-48s %-11s %4d %12s %12s %8s  %s%s\n",
			s.Benchmark, s.Metric, len(s.Points),
			fmtValue(s.Median, s.Unit), fmtValue(s.Last, s.Unit), ratio,
			Sparkline(values), mark)
	}
}

// fmtValue renders a metric value with a unit-appropriate human scale.
func fmtValue(v float64, unit string) string {
	switch {
	case math.IsNaN(v):
		return "NaN"
	case unit == "ns":
		switch {
		case math.Abs(v) >= 1e9:
			return fmt.Sprintf("%.3gs", v/1e9)
		case math.Abs(v) >= 1e6:
			return fmt.Sprintf("%.4gms", v/1e6)
		case math.Abs(v) >= 1e3:
			return fmt.Sprintf("%.4gµs", v/1e3)
		}
		return fmt.Sprintf("%.0fns", v)
	case unit == "bytes" && math.Abs(v) >= 1<<20:
		return fmt.Sprintf("%.4gMiB", v/(1<<20))
	case unit == "bytes" && math.Abs(v) >= 1<<10:
		return fmt.Sprintf("%.4gKiB", v/(1<<10))
	case math.Abs(v) >= 1e6:
		return fmt.Sprintf("%.4gM", v/1e6)
	case math.Abs(v) >= 1e3:
		return fmt.Sprintf("%.4gk", v/1e3)
	}
	return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%.2f", v), "0"), ".")
}
