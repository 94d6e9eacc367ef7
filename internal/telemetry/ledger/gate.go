package ledger

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"

	"microdata/internal/telemetry/perf"
	"microdata/internal/telemetry/resultpack"
)

// Finding kinds.
const (
	// FindingPerfDrift: a gated perf metric's newest value(s) broke out of
	// the rolling envelope of its same-environment history.
	FindingPerfDrift = "perf-drift"
	// FindingInvalid: a gated metric stopped producing numbers (NaN).
	FindingInvalid = "invalid"
	// FindingCorrectness: a result-pack claim changed between entries with
	// an unchanged environment fingerprint — a verdict, never a trend.
	FindingCorrectness = "correctness"
)

// Finding is one gate failure with a path-level diagnostic.
type Finding struct {
	// Kind is one of the Finding* constants.
	Kind string
	// Path names the offending claim: "<benchmark>.<metric>" for perf,
	// "algorithms[k=10/mondrian].measures.lm"-style for correctness.
	Path string
	// Entry is the digest of the offending ledger entry; Against is the
	// reference entry it diverged from (correctness only).
	Entry   string
	Against string
	// Baseline, Value and Width quantify a perf drift (the rolling history
	// median, the excursion value, and the envelope half-width).
	Baseline, Value, Width float64
	// History is the number of same-environment entries behind Baseline.
	History int
	// Detail is the human-readable one-liner.
	Detail string
}

// Attribution is an env-change note: the newest entry is not comparable to
// the prior history, and here is exactly why — field by field. An
// attribution alone never fails the gate.
type Attribution struct {
	Kind    string // KindPerf or KindResult
	Entry   string // newest digest
	Against string // most recent prior digest
	Changes []perf.EnvChange
}

// GateOptions tunes the rolling gate.
type GateOptions struct {
	perf.Envelope
	// Gated selects the perf metrics whose drift fails the gate (default
	// perf.DefaultGated: wall_ns, allocs).
	Gated []string
	// Sustain is how many newest same-environment entries must all exceed
	// the envelope for the gate to fail (default 1: the newest entry alone
	// — CI wants immediate detection; raise it to demand persistence).
	Sustain int
	// MinHistory is the minimum number of same-environment history entries
	// required before gating (default 2).
	MinHistory int
}

func (o GateOptions) withDefaults() GateOptions {
	if o.Gated == nil {
		o.Gated = perf.DefaultGated
	}
	if o.Sustain <= 0 {
		o.Sustain = 1
	}
	if o.MinHistory <= 0 {
		o.MinHistory = 2
	}
	return o
}

// GateResult is the full outcome of a gate run.
type GateResult struct {
	PerfEntries   int
	ResultEntries int
	// Checked counts the gated (benchmark, metric) series evaluated.
	Checked int
	// Findings fail the gate (exit 5); Attributions and Notes do not.
	Findings     []Finding
	Attributions []Attribution
	Notes        []string
}

// OK reports whether the gate passes.
func (r *GateResult) OK() bool { return len(r.Findings) == 0 }

// Gate evaluates the ledger's newest perf entry against its rolling
// same-environment history and cross-checks every result-pack claim across
// same-environment entries. Pack manifests are re-verified on read, so a
// tampered ledger surfaces as an ExitVerification error rather than a
// verdict.
func Gate(l *Ledger, opts GateOptions) (*GateResult, error) {
	opts = opts.withDefaults()
	res := &GateResult{
		PerfEntries:   len(l.Entries(KindPerf)),
		ResultEntries: len(l.Entries(KindResult)),
	}
	if err := gatePerf(l, opts, res); err != nil {
		return nil, err
	}
	if err := gateResults(l, res); err != nil {
		return nil, err
	}
	return res, nil
}

func gatePerf(l *Ledger, opts GateOptions, res *GateResult) error {
	entries := l.Entries(KindPerf)
	if len(entries) < 2 {
		res.Notes = append(res.Notes, fmt.Sprintf("perf: %d entr%s — no history to gate against",
			len(entries), plural(len(entries), "y", "ies")))
		return nil
	}
	newest := entries[len(entries)-1]
	prior := entries[:len(entries)-1]
	var history []Entry
	for _, e := range prior {
		if e.EnvFingerprint == newest.EnvFingerprint {
			history = append(history, e)
		}
	}
	if len(history) < opts.MinHistory {
		// Not enough comparable history: attribute instead of gating.
		latest := prior[len(prior)-1]
		changes := perf.DiffEnv(latest.Env, newest.Env)
		res.Attributions = append(res.Attributions, Attribution{
			Kind: KindPerf, Entry: newest.Digest, Against: latest.Digest, Changes: changes,
		})
		res.Notes = append(res.Notes, fmt.Sprintf(
			"perf: entry %s has %d same-env prior entr%s (< %d needed) — drift not gated, attributed to environment",
			newest.Digest[:12], len(history), plural(len(history), "y", "ies"), opts.MinHistory))
		return nil
	}

	packs := map[string]*perf.Pack{}
	load := func(digest string) (*perf.Pack, error) {
		if p, ok := packs[digest]; ok {
			return p, nil
		}
		p, err := l.ReadPerf(digest)
		if err != nil {
			return nil, err
		}
		packs[digest] = p
		return p, nil
	}
	newPack, err := load(newest.Digest)
	if err != nil {
		return err
	}
	// The excursion window: the newest Sustain same-env entries (including
	// the newest itself) must all break the envelope computed over the
	// entries before them.
	window := append(append([]Entry(nil), history...), newest)
	if len(window) <= opts.Sustain || len(window)-opts.Sustain < opts.MinHistory {
		res.Notes = append(res.Notes, fmt.Sprintf(
			"perf: %d same-env entries cannot sustain a %d-entry excursion over %d history entries — not gated",
			len(window), opts.Sustain, opts.MinHistory))
		return nil
	}
	histEntries := window[:len(window)-opts.Sustain]
	tailEntries := window[len(window)-opts.Sustain:]

	for _, b := range newPack.Benchmarks {
		for _, metric := range opts.Gated {
			s, ok := b.Metrics[metric]
			if !ok {
				continue
			}
			path := b.Name + "." + metric
			if math.IsNaN(s.Median) {
				res.Findings = append(res.Findings, Finding{
					Kind: FindingInvalid, Path: path, Entry: newest.Digest,
					Detail: fmt.Sprintf("%s: entry %s median is NaN — benchmark stopped producing numbers",
						path, newest.Digest[:12]),
				})
				continue
			}
			values := func(es []Entry) ([]float64, error) {
				var out []float64
				for _, e := range es {
					p, err := load(e.Digest)
					if err != nil {
						return nil, err
					}
					if pb := p.Benchmark(b.Name); pb != nil {
						if ps, ok := pb.Metrics[metric]; ok {
							out = append(out, ps.Median)
						}
					}
				}
				return out, nil
			}
			hist, err := values(histEntries)
			if err != nil {
				return err
			}
			if len(hist) < opts.MinHistory {
				continue // benchmark too new in this environment
			}
			tail, err := values(tailEntries)
			if err != nil {
				return err
			}
			res.Checked++
			base, width := band(opts.Envelope, metric, hist)
			excursion := len(tail) == opts.Sustain
			for _, v := range tail {
				if !(v > base+width) {
					excursion = false
					break
				}
			}
			if excursion {
				res.Findings = append(res.Findings, Finding{
					Kind: FindingPerfDrift, Path: path, Entry: newest.Digest,
					Baseline: base, Value: s.Median, Width: width, History: len(hist),
					Detail: fmt.Sprintf("%s: entry %s median %s exceeds rolling baseline %s (n=%d same-env entries) by more than the envelope ±%s",
						path, newest.Digest[:12], fmtValue(s.Median, s.Unit),
						fmtValue(base, s.Unit), len(hist), fmtValue(width, s.Unit)),
				})
			}
		}
	}
	return nil
}

// gateResults holds correctness series to the stricter bar: any claim
// drifting between result entries with an unchanged env fingerprint is a
// verdict, not a trend. Entries under different fingerprints are never
// cross-compared (the dataset draw or toolchain legitimately changed) —
// that difference is surfaced as an attribution instead.
func gateResults(l *Ledger, res *GateResult) error {
	entries := l.Entries(KindResult)
	if len(entries) == 0 {
		return nil
	}
	byFP := map[string][]Entry{}
	var order []string
	for _, e := range entries {
		if _, ok := byFP[e.EnvFingerprint]; !ok {
			order = append(order, e.EnvFingerprint)
		}
		byFP[e.EnvFingerprint] = append(byFP[e.EnvFingerprint], e)
	}
	for _, fp := range order {
		group := byFP[fp]
		if len(group) < 2 {
			continue
		}
		ref := group[0]
		refPack, err := l.ReadResult(ref.Digest)
		if err != nil {
			return err
		}
		refClaims := resultClaims(refPack)
		for _, e := range group[1:] {
			p, err := l.ReadResult(e.Digest)
			if err != nil {
				return err
			}
			claims := resultClaims(p)
			var paths []string
			for path := range refClaims {
				if _, ok := claims[path]; ok {
					paths = append(paths, path)
				}
			}
			sort.Strings(paths)
			for _, path := range paths {
				if refClaims[path] != claims[path] {
					res.Findings = append(res.Findings, Finding{
						Kind: FindingCorrectness, Path: path,
						Entry: e.Digest, Against: ref.Digest,
						Detail: fmt.Sprintf("%s: %s -> %s between entries %s and %s with unchanged env fingerprint %s — correctness verdict, not a trend",
							path, refClaims[path], claims[path], ref.Digest[:12], e.Digest[:12], fp),
					})
				}
			}
		}
	}
	if len(order) > 1 {
		// Same-kind entries across fingerprints: attribute the latest split.
		last := entries[len(entries)-1]
		for i := len(entries) - 2; i >= 0; i-- {
			if entries[i].EnvFingerprint != last.EnvFingerprint {
				res.Attributions = append(res.Attributions, Attribution{
					Kind: KindResult, Entry: last.Digest, Against: entries[i].Digest,
					Changes: perf.DiffEnv(entries[i].Env, last.Env),
				})
				break
			}
		}
	}
	return nil
}

// resultClaims flattens a result pack into path → pinned-spelling claims.
// Floats format through strconv's shortest round-trip form ("NaN", "+Inf",
// "-0" keep their spellings), so bit-distinguishable values differ.
func resultClaims(p *resultpack.Pack) map[string]string {
	c := map[string]string{}
	f := func(v resultpack.Float) string {
		return strconv.FormatFloat(float64(v), 'g', -1, 64)
	}
	for _, a := range p.Algorithms {
		pre := fmt.Sprintf("algorithms[k=%d/%s]", a.K, a.Algorithm)
		c[pre+".node"] = a.Node
		c[pre+".k_actual"] = strconv.Itoa(a.KActual)
		c[pre+".classes"] = strconv.Itoa(a.Classes)
		c[pre+".suppressed"] = strconv.Itoa(a.Suppressed)
		c[pre+".failed"] = a.Failed
		for name, v := range a.Measures {
			c[pre+".measures."+name] = f(v)
		}
	}
	for _, a := range p.Attack {
		pre := fmt.Sprintf("attack[k=%d/%s]", a.K, a.Algorithm)
		if a.Prosecutor != nil {
			c[pre+".prosecutor.mean"] = f(a.Prosecutor.Mean)
			c[pre+".prosecutor.median"] = f(a.Prosecutor.Median)
			c[pre+".prosecutor.max"] = f(a.Prosecutor.Max)
		}
		if a.Journalist != nil {
			c[pre+".journalist.mean"] = f(a.Journalist.Mean)
			c[pre+".journalist.median"] = f(a.Journalist.Median)
			c[pre+".journalist.max"] = f(a.Journalist.Max)
		}
		c[pre+".marketer"] = f(a.Marketer)
	}
	for _, t := range p.Tables {
		c[fmt.Sprintf("tables[%s].sha256", t.ID)] = t.SHA256
	}
	return c
}

// WriteText renders the gate outcome: findings first (the reasons for a
// non-zero exit), then attributions and notes.
func (r *GateResult) WriteText(w io.Writer) {
	fmt.Fprintf(w, "gate: %d perf entries, %d result entries, %d gated series checked\n",
		r.PerfEntries, r.ResultEntries, r.Checked)
	for _, f := range r.Findings {
		fmt.Fprintf(w, "%s: %s\n", f.Kind, f.Detail)
	}
	for _, a := range r.Attributions {
		fmt.Fprintf(w, "attribution (%s): entry %s differs from %s in environment only — %s\n",
			a.Kind, a.Entry[:12], a.Against[:12], perf.EnvChangeFields(a.Changes))
		for _, ch := range a.Changes {
			fmt.Fprintf(w, "  env %s\n", ch)
		}
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	if r.OK() {
		fmt.Fprintln(w, "verdict: ok")
	} else {
		fmt.Fprintf(w, "verdict: %d finding(s)\n", len(r.Findings))
	}
}

// MarshalCanonical renders the gate result as canonical JSON (pinned float
// spellings, trailing newline).
func (r *GateResult) MarshalCanonical() ([]byte, error) {
	type findingJSON struct {
		Kind     string    `json:"kind"`
		Path     string    `json:"path"`
		Entry    string    `json:"entry"`
		Against  string    `json:"against,omitempty"`
		Baseline jsonFloat `json:"baseline"`
		Value    jsonFloat `json:"value"`
		Width    jsonFloat `json:"width"`
		History  int       `json:"history,omitempty"`
		Detail   string    `json:"detail"`
	}
	type attributionJSON struct {
		Kind    string           `json:"kind"`
		Entry   string           `json:"entry"`
		Against string           `json:"against"`
		Changes []perf.EnvChange `json:"changes"`
	}
	doc := struct {
		Schema        string            `json:"schema"`
		Version       int               `json:"version"`
		PerfEntries   int               `json:"perf_entries"`
		ResultEntries int               `json:"result_entries"`
		Checked       int               `json:"checked"`
		OK            bool              `json:"ok"`
		Findings      []findingJSON     `json:"findings,omitempty"`
		Attributions  []attributionJSON `json:"attributions,omitempty"`
		Notes         []string          `json:"notes,omitempty"`
	}{Schema: "microdata/ledger-gate", Version: 1,
		PerfEntries: r.PerfEntries, ResultEntries: r.ResultEntries,
		Checked: r.Checked, OK: r.OK(), Notes: r.Notes}
	for _, f := range r.Findings {
		doc.Findings = append(doc.Findings, findingJSON{
			Kind: f.Kind, Path: f.Path, Entry: f.Entry, Against: f.Against,
			Baseline: jsonFloat(f.Baseline), Value: jsonFloat(f.Value),
			Width: jsonFloat(f.Width), History: f.History, Detail: f.Detail,
		})
	}
	for _, a := range r.Attributions {
		doc.Attributions = append(doc.Attributions, attributionJSON{
			Kind: a.Kind, Entry: a.Entry, Against: a.Against, Changes: a.Changes,
		})
	}
	canon, err := perf.CanonicalMarshal(doc)
	if err != nil {
		return nil, err
	}
	return append(canon, '\n'), nil
}

func plural(n int, one, many string) string {
	if n == 1 {
		return one
	}
	return many
}
