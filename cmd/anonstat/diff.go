package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"microdata/internal/telemetry/ledger"
	"microdata/internal/telemetry/perf"
	"microdata/internal/telemetry/resultpack"
)

// cmdDiff compares two perf packs (see DESIGN.md "Perf packs") and gates
// on regression drift: it verifies both packs' self-manifests, runs the
// median/MAD comparator over every benchmark the baseline carries, prints
// the per-metric drift table (or -json), and exits 5 on drift.
//
// With -baseline-ledger the baseline comes from a trajectory ledger
// instead of a file argument: the newest perf entry whose environment
// fingerprint matches the current pack (falling back to the newest perf
// entry overall, with the differing fingerprint fields surfaced).
func cmdDiff(args []string, stdout, stderr io.Writer) error {
	fs := newFlagSet("diff", stderr)
	var (
		rel        = fs.Float64("rel-threshold", perf.DefaultRelThreshold, "relative drift threshold (fraction of the baseline median)")
		gate       = fs.String("gate", "", "comma list of metrics whose drift fails the gate (default wall_ns,allocs)")
		verifyOnly = fs.Bool("verify-only", false, "verify a single pack's manifest and exit")
		verbose    = fs.Bool("v", false, "print every metric row, including ungated health series")
		jsonOut    = fs.Bool("json", false, "emit the full drift comparison as canonical JSON on stdout instead of the table (exit codes unchanged)")
		baseLedger = fs.String("baseline-ledger", "", "pick the baseline from this trajectory ledger (newest env-matching perf entry) instead of a baseline file argument")
	)
	if err := parse(fs, args); err != nil {
		return err
	}
	args = fs.Args()
	if *verifyOnly {
		if len(args) != 1 {
			return perf.Invalidf("diff -verify-only takes exactly one pack (got %d args)", len(args))
		}
		raw, err := os.ReadFile(args[0])
		if err != nil {
			return perf.Exit(perf.ExitInvalid, err)
		}
		if err := perf.Verify(raw); err != nil {
			return fmt.Errorf("%s: %w", args[0], err)
		}
		fmt.Fprintf(stdout, "%s: manifest ok\n", args[0])
		return nil
	}
	var base, cur *perf.Pack
	var err error
	if *baseLedger != "" {
		if len(args) != 1 {
			return perf.Invalidf("usage: anonstat diff -baseline-ledger DIR [flags] CUR (got %d args)", len(args))
		}
		if cur, err = perf.ReadFile(args[0]); err != nil {
			return err
		}
		if base, err = ledgerBaseline(*baseLedger, cur, stderr); err != nil {
			return err
		}
	} else {
		if len(args) != 2 {
			return perf.Invalidf("usage: anonstat diff [flags] BASE CUR (got %d args)", len(args))
		}
		if base, err = perf.ReadFile(args[0]); err != nil {
			return err
		}
		if cur, err = perf.ReadFile(args[1]); err != nil {
			return err
		}
	}

	opts := perf.CompareOptions{Envelope: perf.Envelope{RelThreshold: *rel}, Gated: splitList(*gate)}
	if *gate != "" && opts.Gated == nil {
		return perf.Invalidf("-gate lists no metrics")
	}
	d, err := perf.Compare(base, cur, opts)
	if err != nil {
		return err
	}
	if *jsonOut {
		if err := writeDiffJSON(stdout, d); err != nil {
			return err
		}
	} else {
		d.WriteTable(stdout, *verbose)
	}
	if !d.OK() {
		return perf.Exit(perf.ExitDrift,
			fmt.Errorf("regression drift: %d gated metrics drifted, %d baseline benchmarks missing", d.Drifted, len(d.Missing)))
	}
	return nil
}

// writeDiffJSON emits the comparison in the same canonical JSON form the
// packs themselves use (sorted keys, no HTML escaping, trailing newline),
// so the output is byte-stable for a given pair of packs and scripts can
// diff or archive it directly. Ratio is NaN whenever the baseline median
// is zero (and single-rep MADs can be NaN too), which encoding/json
// rejects — the float fields marshal through resultpack.Float, pinning
// the same "NaN"/"+Inf"/"-Inf" spellings the result packs use.
func writeDiffJSON(w io.Writer, d *perf.Diff) error {
	type jsonRow struct {
		Benchmark string           `json:"benchmark"`
		Metric    string           `json:"metric"`
		Unit      string           `json:"unit,omitempty"`
		Base      resultpack.Float `json:"base_median"`
		BaseMAD   resultpack.Float `json:"base_mad"`
		Cur       resultpack.Float `json:"cur_median"`
		Ratio     resultpack.Float `json:"ratio"`
		Verdict   perf.Verdict     `json:"verdict"`
	}
	rows := make([]jsonRow, len(d.Rows))
	for i, r := range d.Rows {
		rows[i] = jsonRow{
			Benchmark: r.Benchmark, Metric: r.Metric, Unit: r.Unit,
			Base: resultpack.Float(r.Base), BaseMAD: resultpack.Float(r.BaseMAD),
			Cur: resultpack.Float(r.Cur), Ratio: resultpack.Float(r.Ratio),
			Verdict: r.Verdict,
		}
	}
	raw, err := json.Marshal(struct {
		BaseSuite  string           `json:"base_suite"`
		CurSuite   string           `json:"cur_suite"`
		Rows       []jsonRow        `json:"rows"`
		Missing    []string         `json:"missing,omitempty"`
		EnvChanges []perf.EnvChange `json:"env_changes,omitempty"`
		Drifted    int              `json:"drifted"`
		Improved   int              `json:"improved"`
	}{d.BaseSuite, d.CurSuite, rows, d.Missing, d.EnvChanges, d.Drifted, d.Improved})
	if err != nil {
		return err
	}
	canon, err := perf.Canonicalize(raw)
	if err != nil {
		return err
	}
	_, err = w.Write(append(canon, '\n'))
	return err
}

// ledgerBaseline picks the comparison baseline out of a trajectory ledger:
// the newest perf entry whose environment fingerprint matches the current
// pack's, so cross-machine or cross-toolchain entries never masquerade as
// the reference. With no fingerprint match the newest perf entry is used
// and the differing fields are printed (the comparator surfaces them in
// its output too).
func ledgerBaseline(dir string, cur *perf.Pack, stderr io.Writer) (*perf.Pack, error) {
	l, err := ledger.Open(dir)
	if err != nil {
		return nil, err
	}
	entries := l.Entries(ledger.KindPerf)
	if len(entries) == 0 {
		return nil, perf.Invalidf("ledger %s holds no perf entries", dir)
	}
	fp := cur.Env.Fingerprint()
	pick := -1
	for i := len(entries) - 1; i >= 0; i-- {
		if entries[i].EnvFingerprint == fp {
			pick = i
			break
		}
	}
	match := "env match"
	if pick < 0 {
		pick = len(entries) - 1
		match = fmt.Sprintf("no env match — fingerprint differs in: %s",
			perf.EnvChangeFields(perf.DiffEnv(entries[pick].Env, cur.Env)))
	}
	e := entries[pick]
	fmt.Fprintf(stderr, "anonstat: baseline %s from ledger %s (suite %s, %s)\n",
		e.Digest[:12], dir, e.Suite, match)
	return l.ReadPerf(e.Digest)
}
