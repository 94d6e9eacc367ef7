package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"math"
	"sort"
	"strings"
	"time"

	"microdata/internal/telemetry"
)

// recorder follows one job: it counts the layer calls, wraps each in a
// span while a telemetry collector is installed, keeps the counts read
// from the layers' return values, and digests the job's outputs.
type recorder struct {
	attempted int
	failed    int
	problems  []string
	// last is the span-measured duration of the latest call (0 untraced).
	last time.Duration
	// own holds the IDs of the spans the benchmark opened.
	own    map[uint64]bool
	counts map[string]float64
	digest hash.Hash
	// lines are the digested lines, printed when the digest mismatches.
	lines []string
}

func newRecorder() *recorder {
	return &recorder{own: map[uint64]bool{}, counts: map[string]float64{}, digest: sha256.New()}
}

// call runs one public layer call under a span named after the layer.
func (r *recorder) call(ctx context.Context, name string, fn func(context.Context) error) error {
	r.attempted++
	ctx, sp := telemetry.Start(ctx, name)
	if sp != nil {
		r.own[sp.ID] = true
	}
	err := fn(ctx)
	sp.End()
	r.last = sp.Duration()
	if err != nil {
		r.failed++
		return fmt.Errorf("%s: %w", name, err)
	}
	return nil
}

// check records an output that failed verification.
func (r *recorder) check(ok bool, format string, args ...any) {
	if !ok {
		r.failed++
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// add accumulates a per-layer count.
func (r *recorder) add(name string, v float64) { r.counts[name] += v }

// note appends one line to the job's output digest.
func (r *recorder) note(format string, args ...any) {
	line := fmt.Sprintf(format, args...)
	fmt.Fprintln(r.digest, line)
	r.lines = append(r.lines, line)
}

// sum is the hex SHA-256 of every line noted so far.
func (r *recorder) sum() string { return hex.EncodeToString(r.digest.Sum(nil)) }

// vecHash is the hex SHA-256 of a vector's IEEE-754 bit patterns.
func vecHash(v []float64) string {
	h := sha256.New()
	var b [8]byte
	for _, x := range v {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// perLayer lists the per-layer metrics of a traced run, as BENCHMARK.json
// lists them. A layer a workload bypasses reports 0.
var perLayer = []struct{ name, unit, better string }{
	{"dataset.ingest.busy_s", "s", "lower"},
	{"dataset.ingest.mb_per_s", "MB/s", "higher"},
	{"dataset.write.busy_s", "s", "lower"},
	{"dataset.write.mb", "MB", "lower"},
	{"hierarchy.generalize.busy_s", "s", "lower"},
	{"eqclass.groupby.busy_s", "s", "lower"},
	{"eqclass.classes", "count", "lower"},
	{"algorithm.bottomup.busy_s", "s", "lower"},
	{"algorithm.datafly.busy_s", "s", "lower"},
	{"algorithm.samarati.busy_s", "s", "lower"},
	{"algorithm.incognito.busy_s", "s", "lower"},
	{"algorithm.optimal.busy_s", "s", "lower"},
	{"algorithm.mondrian.busy_s", "s", "lower"},
	{"algorithm.mondrian-relaxed.busy_s", "s", "lower"},
	{"algorithm.mu-argus.busy_s", "s", "lower"},
	{"algorithm.ola.busy_s", "s", "lower"},
	{"algorithm.genetic.busy_s", "s", "lower"},
	{"algorithm.topdown.busy_s", "s", "lower"},
	{"engine.nodes_evaluated", "count", "lower"},
	{"engine.rows_scanned", "count", "lower"},
	{"engine.cache_lookups", "count", "lower"},
	{"engine.cache_hit_ratio", "ratio", "higher"},
	{"engine.busy_s", "s", "lower"},
	{"engine.rows_per_s", "rows/s", "higher"},
	{"mondrian.cuts", "count", "lower"},
	{"algorithm.finish_global.busy_s", "s", "lower"},
	{"algorithm.finish_global.calls", "count", "lower"},
	{"algorithm.finish_global.accept_ratio", "ratio", "higher"},
	{"algorithm.violating.busy_s", "s", "lower"},
	{"measure.context.busy_s", "s", "lower"},
	{"measure.vectors.busy_s", "s", "lower"},
	{"measure.summary.busy_s", "s", "lower"},
	{"measure.classes", "count", "lower"},
	{"utility.lm.busy_s", "s", "lower"},
	{"attack.prosecutor.busy_s", "s", "lower"},
	{"attack.journalist.busy_s", "s", "lower"},
	{"attack.regions", "count", "lower"},
	{"attack.regions_probed", "count", "lower"},
	{"attack.victim_lookups", "count", "lower"},
	{"attack.victim_cache_hit_ratio", "ratio", "higher"},
	{"core.tournament.cov.busy_s", "s", "lower"},
	{"core.tournament.spr.busy_s", "s", "lower"},
	{"core.tournament.rank.busy_s", "s", "lower"},
	{"core.tournament.hv-log.busy_s", "s", "lower"},
	{"core.tournament.cov-utility.busy_s", "s", "lower"},
	{"core.tournament.wtd.busy_s", "s", "lower"},
	{"core.comparisons", "count", "lower"},
	{"core.ns_per_element", "ns", "lower"},
	{"resultpack.seal.busy_s", "s", "lower"},
	{"resultpack.bytes", "bytes", "lower"},
	{"layer.dataset.busy_s", "s", "lower"},
	{"layer.dataset.self_s", "s", "lower"},
	{"layer.hierarchy.busy_s", "s", "lower"},
	{"layer.hierarchy.self_s", "s", "lower"},
	{"layer.eqclass.busy_s", "s", "lower"},
	{"layer.eqclass.self_s", "s", "lower"},
	{"layer.algorithm.busy_s", "s", "lower"},
	{"layer.algorithm.self_s", "s", "lower"},
	{"layer.engine.busy_s", "s", "lower"},
	{"layer.engine.self_s", "s", "lower"},
	{"layer.mondrian.busy_s", "s", "lower"},
	{"layer.mondrian.self_s", "s", "lower"},
	{"layer.measure.busy_s", "s", "lower"},
	{"layer.measure.self_s", "s", "lower"},
	{"layer.utility.busy_s", "s", "lower"},
	{"layer.utility.self_s", "s", "lower"},
	{"layer.attack.busy_s", "s", "lower"},
	{"layer.attack.self_s", "s", "lower"},
	{"layer.core.busy_s", "s", "lower"},
	{"layer.core.self_s", "s", "lower"},
	{"layer.resultpack.busy_s", "s", "lower"},
	{"layer.resultpack.self_s", "s", "lower"},
	{"runtime.gc_pause_s", "s", "lower"},
	{"runtime.gc_cycles", "count", "lower"},
	{"runtime.peak_rss_mb", "MB", "lower"},
	{"trace.job_s", "s", "lower"},
	{"trace.unattributed_share", "ratio", "lower"},
	{"trace.untraced_job_s", "s", "lower"},
	{"trace.overhead_share", "ratio", "lower"},
}

// modules are the layers the self-time table rolls spans up into.
var modules = []string{"dataset", "hierarchy", "eqclass", "algorithm", "engine", "mondrian",
	"measure", "utility", "attack", "core", "resultpack"}

// module maps a span name to its layer. The benchmark names its spans
// <layer>.<call>; the program's own spans are engine.*, attack.*,
// algorithm.materialize and <algorithm>.search.
func module(name string) string {
	m, _, _ := strings.Cut(name, ".")
	switch m {
	case "job", "dataset", "hierarchy", "eqclass", "engine", "measure", "utility", "attack", "core", "resultpack":
		return m
	case "mondrian", "mondrian-relaxed":
		return "mondrian"
	default:
		return "algorithm"
	}
}

// spanTimes is the busy and self time of one span name or layer.
type spanTimes struct {
	busy, self time.Duration
	calls      int
}

// attribution splits one traced job's wall time over its spans. A span's
// self time is its duration minus the part of it its child spans cover; a
// layer's busy time counts only its outermost spans, so a program span
// nested in the benchmark's span of the same layer is not counted twice.
// byName keys the program's own spans as "(program) <name>".
type attribution struct {
	byName   map[string]*spanTimes
	byModule map[string]*spanTimes
	root     spanTimes
}

func attribute(spans []*telemetry.Span, root *telemetry.Span, own map[uint64]bool) *attribution {
	byID := make(map[uint64]*telemetry.Span, len(spans))
	children := make(map[uint64][]*telemetry.Span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
		children[s.ParentID] = append(children[s.ParentID], s)
	}
	a := &attribution{byName: map[string]*spanTimes{}, byModule: map[string]*spanTimes{}}
	for _, s := range spans {
		self := s.Duration() - covered(s, children[s.ID])
		if s == root {
			a.root = spanTimes{busy: s.Duration(), self: self, calls: 1}
			continue
		}
		key := s.Name
		if !own[s.ID] {
			key = programPrefix + s.Name
		}
		n := entry(a.byName, key)
		n.busy += s.Duration()
		n.self += self
		n.calls++

		mod := module(s.Name)
		m := entry(a.byModule, mod)
		m.self += self
		if !nestedInModule(s, mod, byID) {
			m.busy += s.Duration()
		}
	}
	return a
}

func entry(m map[string]*spanTimes, key string) *spanTimes {
	if m[key] == nil {
		m[key] = &spanTimes{}
	}
	return m[key]
}

const programPrefix = "(program) "

// covered is how much of s its children's intervals cover.
func covered(s *telemetry.Span, kids []*telemetry.Span) time.Duration {
	type iv struct{ lo, hi time.Time }
	lo, hi := s.Start(), s.Start().Add(s.Duration())
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := k.Start(), k.Start().Add(k.Duration())
		if a.Before(lo) {
			a = lo
		}
		if b.After(hi) {
			b = hi
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo.Before(ivs[j].lo) })
	var total time.Duration
	var end time.Time
	for _, v := range ivs {
		if v.lo.Before(end) {
			v.lo = end
		}
		if v.hi.After(v.lo) {
			total += v.hi.Sub(v.lo)
			end = v.hi
		}
	}
	return total
}

func nestedInModule(s *telemetry.Span, mod string, byID map[uint64]*telemetry.Span) bool {
	for p := byID[s.ParentID]; p != nil; p = byID[p.ParentID] {
		if module(p.Name) == mod {
			return true
		}
	}
	return false
}

// jobLayerMetrics computes one traced job's per-layer metrics.
func jobLayerMetrics(j *jobRun, a *attribution) map[string]float64 {
	m := map[string]float64{}
	for name, t := range a.byName {
		if !strings.HasPrefix(name, programPrefix) {
			m[name+".busy_s"] = t.busy.Seconds()
		}
	}
	for _, mod := range modules {
		if t := a.byModule[mod]; t != nil {
			m["layer."+mod+".busy_s"] = t.busy.Seconds()
			m["layer."+mod+".self_s"] = t.self.Seconds()
		}
	}
	c := j.rec.counts
	for _, name := range []string{"eqclass.classes", "engine.nodes_evaluated", "engine.rows_scanned",
		"engine.cache_lookups", "engine.busy_s", "mondrian.cuts", "algorithm.finish_global.calls",
		"measure.classes", "attack.regions", "attack.regions_probed", "attack.victim_lookups",
		"core.comparisons", "resultpack.bytes"} {
		m[name] = c[name]
	}
	m["dataset.ingest.mb_per_s"] = ratio(c["dataset.ingest.bytes"]/1e6, m["dataset.ingest.busy_s"])
	m["dataset.write.mb"] = c["dataset.write.bytes"] / 1e6
	m["engine.cache_hit_ratio"] = ratio(c["engine.cache_hits"], c["engine.cache_lookups"])
	m["engine.rows_per_s"] = ratio(c["engine.rows_scanned"], c["engine.busy_s"])
	m["algorithm.finish_global.accept_ratio"] = ratio(c["algorithm.finish_global.accepted"], c["algorithm.finish_global.calls"])
	m["attack.victim_cache_hit_ratio"] = ratio(c["attack.victim_hits"], c["attack.victim_lookups"])
	core := 0.0
	for name, t := range a.byName {
		if strings.HasPrefix(name, "core.tournament.") {
			core += t.busy.Seconds()
		}
	}
	m["core.ns_per_element"] = ratio(core*1e9, c["core.elements"])
	m["runtime.gc_pause_s"] = j.gcPause.Seconds()
	m["runtime.gc_cycles"] = float64(j.gcCycles)
	m["runtime.peak_rss_mb"] = j.peakRSS / 1e6
	m["trace.job_s"] = a.root.busy.Seconds()
	m["trace.unattributed_share"] = ratio(a.root.self.Seconds(), a.root.busy.Seconds())
	return m
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// layerMetrics reports the traced jobs' per-layer metrics (medians over
// the traced jobs) and prints the busy/self table of the last one.
func layerMetrics(out map[string]metric, jobs []*jobRun, w io.Writer) {
	var traced, untraced []float64
	perJob := map[string][]float64{}
	var attrs []*attribution
	for _, j := range jobs {
		if j.err != nil {
			continue
		}
		if !j.traced {
			untraced = append(untraced, j.wall.Seconds())
			continue
		}
		traced = append(traced, j.wall.Seconds())
		a := attribute(j.spans, j.root, j.rec.own)
		attrs = append(attrs, a)
		for name, v := range jobLayerMetrics(j, a) {
			perJob[name] = append(perJob[name], v)
		}
	}
	for _, l := range perLayer {
		out[l.name] = metric{median(perJob[l.name]), l.unit}
	}
	out["trace.untraced_job_s"] = metric{median(untraced), "s"}
	out["trace.overhead_share"] = metric{ratio(median(traced)-median(untraced), median(untraced)), "ratio"}
	if len(attrs) > 0 {
		writeTable(w, attrs[len(attrs)-1])
	}
}

// writeTable prints the per-layer and per-span busy and self times of
// one traced job.
func writeTable(w io.Writer, a *attribution) {
	total := a.root.busy.Seconds()
	fmt.Fprintf(w, "traced job %.3fs; unattributed %.3fs (%.1f%%)\n",
		total, a.root.self.Seconds(), 100*ratio(a.root.self.Seconds(), total))
	fmt.Fprintf(w, "  %-12s %10s %10s %7s\n", "layer", "busy_s", "self_s", "self%")
	for _, mod := range modules {
		if t := a.byModule[mod]; t != nil {
			fmt.Fprintf(w, "  %-12s %10.4f %10.4f %6.1f%%\n", mod, t.busy.Seconds(), t.self.Seconds(),
				100*ratio(t.self.Seconds(), total))
		}
	}
	names := make([]string, 0, len(a.byName))
	for n := range a.byName {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return a.byName[names[i]].self > a.byName[names[j]].self })
	fmt.Fprintf(w, "  %-36s %6s %10s %10s\n", "span", "calls", "busy_s", "self_s")
	for _, n := range names {
		t := a.byName[n]
		fmt.Fprintf(w, "  %-36s %6d %10.4f %10.4f\n", n, t.calls, t.busy.Seconds(), t.self.Seconds())
	}
}
