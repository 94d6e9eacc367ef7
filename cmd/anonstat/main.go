// Command anonstat is the reproduction's one perf CLI. It compares two
// perf packs under the noise envelope (diff), and it maintains and
// inspects a trajectory ledger: the append-only, content-addressed history
// of sealed perf packs and result packs that turns single-run artifacts
// (cmd/anonbench -bench-out, -result-out) into a longitudinal view of the
// reproduction's performance and correctness. See
// internal/telemetry/perf, internal/telemetry/ledger and DESIGN.md "Perf
// packs" and "Trajectory ledger".
//
//	anonstat diff   [flags] BASE CUR           two-pack drift gate
//	anonstat diff   -baseline-ledger DIR CUR   baseline picked from a ledger
//	anonstat diff   -verify-only PACK          manifest check alone
//	anonstat append -ledger DIR pack.json...   verify + record packs
//	anonstat ls     -ledger DIR                list ledger entries
//	anonstat show   -ledger DIR DIGEST         one entry in detail
//	anonstat trend  -ledger DIR [-json]        per-benchmark time series
//	anonstat gate   -ledger DIR [-json]        rolling drift/correctness gate
//
// Exit codes follow the stable contract shared with anonbench and compare:
//
//	0  ok (for diff and gate: no drift findings; improvements, ungated
//	   health changes and env-only changes are reported, not failed)
//	1  internal failure
//	2  an artifact failed integrity verification (a pack or index edited
//	   after sealing, or unsealed)
//	5  drift: for diff, a gated metric exceeded the noise envelope or a
//	   baseline benchmark is missing from the current pack; for gate, a
//	   gated perf metric broke out of its rolling same-environment
//	   envelope, or a result-pack claim changed under an unchanged
//	   environment fingerprint
//	6  invalid input (unknown command, bad flags, non-pack files)
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"microdata/internal/telemetry/ledger"
	"microdata/internal/telemetry/perf"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "anonstat:", err)
		os.Exit(perf.ExitCode(err))
	}
}

func usage(w io.Writer) {
	fmt.Fprintln(w, `usage: anonstat <command> [flags] [args]

commands:
  diff   [flags] BASE CUR          compare two perf packs; exit 5 on drift
  diff   -baseline-ledger DIR CUR  baseline = newest env-matching ledger entry
  diff   -verify-only PACK         verify one pack's manifest
  append -ledger DIR pack.json...  verify packs and append them to the ledger
  ls     -ledger DIR               list ledger entries (digest, kind, env, age)
  show   -ledger DIR DIGEST        show one entry (digest prefix accepted)
  trend  -ledger DIR [-json]       per-benchmark time series with sparklines
  gate   -ledger DIR [-json]       rolling drift gate + correctness verdicts

run "anonstat <command> -h" for per-command flags`)
}

func run(args []string, stdout, stderr io.Writer) error {
	if len(args) == 0 {
		usage(stderr)
		return perf.Invalidf("no command")
	}
	cmd, rest := args[0], args[1:]
	switch cmd {
	case "diff":
		return cmdDiff(rest, stdout, stderr)
	case "append":
		return cmdAppend(rest, stdout, stderr)
	case "ls":
		return cmdLs(rest, stdout, stderr)
	case "show":
		return cmdShow(rest, stdout, stderr)
	case "trend":
		return cmdTrend(rest, stdout, stderr)
	case "gate":
		return cmdGate(rest, stdout, stderr)
	case "help", "-h", "-help", "--help":
		usage(stdout)
		return nil
	default:
		usage(stderr)
		return perf.Invalidf("unknown command %q", cmd)
	}
}

// newFlagSet builds a ContinueOnError flag set whose -h output lands on
// stderr, wrapping the parse error as ExitInvalid.
func newFlagSet(name string, stderr io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet("anonstat "+name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	return fs
}

func parse(fs *flag.FlagSet, args []string) error {
	if err := fs.Parse(args); err != nil {
		return perf.Exit(perf.ExitInvalid, err)
	}
	return nil
}

func openLedger(dir string) (*ledger.Ledger, error) {
	if dir == "" {
		return nil, perf.Invalidf("-ledger is required")
	}
	return ledger.Open(dir)
}

func cmdAppend(args []string, stdout, stderr io.Writer) error {
	fs := newFlagSet("append", stderr)
	dir := fs.String("ledger", "", "ledger directory")
	if err := parse(fs, args); err != nil {
		return err
	}
	if fs.NArg() == 0 {
		return perf.Invalidf("append: no pack files given")
	}
	l, err := openLedger(*dir)
	if err != nil {
		return err
	}
	for _, path := range fs.Args() {
		entry, added, err := l.AppendFile(path)
		if err != nil {
			return err
		}
		verb := "appended"
		if !added {
			verb = "already present"
		}
		fmt.Fprintf(stdout, "%s: %s %s (%s, %s, env %s)\n",
			path, verb, entry.Digest[:12], entry.Kind, entry.Suite, entry.EnvFingerprint)
	}
	fmt.Fprintf(stdout, "ledger %s: %d entries\n", *dir, len(l.Index.Entries))
	return nil
}

func cmdLs(args []string, stdout, stderr io.Writer) error {
	fs := newFlagSet("ls", stderr)
	dir := fs.String("ledger", "", "ledger directory")
	if err := parse(fs, args); err != nil {
		return err
	}
	l, err := openLedger(*dir)
	if err != nil {
		return err
	}
	if len(l.Index.Entries) == 0 {
		fmt.Fprintf(stdout, "ledger %s: empty\n", *dir)
		return nil
	}
	fmt.Fprintf(stdout, "%-12s %-6s %-40s %5s %6s %-12s %-10s %s\n",
		"digest", "kind", "suite", "reps", "bench", "env", "commit", "created")
	for _, e := range l.Index.Entries {
		created := time.UnixMilli(e.CreatedUnixMS).UTC().Format("2006-01-02 15:04")
		commit := e.GitRevision
		if len(commit) > 10 {
			commit = commit[:10]
		}
		if commit == "" {
			commit = "-"
		}
		fmt.Fprintf(stdout, "%-12s %-6s %-40s %5d %6d %-12s %-10s %s\n",
			e.Digest[:12], e.Kind, truncate(e.Suite, 40), e.Reps, e.Benchmarks,
			e.EnvFingerprint, commit, created)
	}
	return nil
}

func cmdShow(args []string, stdout, stderr io.Writer) error {
	fs := newFlagSet("show", stderr)
	dir := fs.String("ledger", "", "ledger directory")
	if err := parse(fs, args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return perf.Invalidf("show: exactly one digest prefix expected (got %d args)", fs.NArg())
	}
	l, err := openLedger(*dir)
	if err != nil {
		return err
	}
	e, err := l.Find(fs.Arg(0))
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "digest:          %s\n", e.Digest)
	fmt.Fprintf(stdout, "kind:            %s\n", e.Kind)
	fmt.Fprintf(stdout, "suite:           %s\n", e.Suite)
	fmt.Fprintf(stdout, "created:         %s\n", time.UnixMilli(e.CreatedUnixMS).UTC().Format(time.RFC3339))
	fmt.Fprintf(stdout, "env fingerprint: %s\n", e.EnvFingerprint)
	fmt.Fprintf(stdout, "go version:      %s (%s/%s, GOMAXPROCS %d)\n",
		e.Env.GoVersion, e.Env.GOOS, e.Env.GOARCH, e.Env.GOMAXPROCS)
	fmt.Fprintf(stdout, "cpu:             %s (x%d)\n", orDash(e.Env.CPUModel), e.Env.NumCPU)
	fmt.Fprintf(stdout, "commit:          %s\n", orDash(e.GitRevision))
	fmt.Fprintf(stdout, "dataset:         hash %s, seed %d, n %d, k %d\n",
		orDash(e.Env.DatasetHash), e.Env.Seed, e.Env.N, e.Env.K)
	if e.Kind == ledger.KindPerf {
		pack, err := l.ReadPerf(e.Digest)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "benchmarks:      %d (reps %d)\n", len(pack.Benchmarks), pack.Reps)
		for _, b := range pack.Benchmarks {
			wall := b.Metrics[perf.MetricWallNS]
			allocs := b.Metrics[perf.MetricAllocs]
			fmt.Fprintf(stdout, "  %-48s wall %12s  allocs %.0f\n",
				b.Name, time.Duration(wall.Median).Round(time.Microsecond), allocs.Median)
		}
	} else {
		pack, err := l.ReadResult(e.Digest)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "sections:        %d algorithm rows, %d attack rows, %d table digests, %d comparisons\n",
			len(pack.Algorithms), len(pack.Attack), len(pack.Tables), len(pack.Comparisons))
	}
	return nil
}

func cmdTrend(args []string, stdout, stderr io.Writer) error {
	fs := newFlagSet("trend", stderr)
	var (
		dir     = fs.String("ledger", "", "ledger directory")
		bench   = fs.String("bench", "", "keep only benchmarks containing this substring")
		metrics = fs.String("metrics", "", "comma list of metric series to extract (default wall_ns,allocs,heap_bytes)")
		sustain = fs.Int("sustain", 2, "consecutive excursions required for a changepoint")
		rel     = fs.Float64("rel-threshold", perf.DefaultRelThreshold, "relative envelope (fraction of the rolling median)")
		last    = fs.Int("last", 0, "use only the newest N perf entries (0 = all)")
		jsonOut = fs.Bool("json", false, "emit the trend as byte-stable canonical JSON on stdout")
	)
	if err := parse(fs, args); err != nil {
		return err
	}
	l, err := openLedger(*dir)
	if err != nil {
		return err
	}
	opts := ledger.TrendOptions{
		Envelope:  perf.Envelope{RelThreshold: *rel},
		Benchmark: *bench, Sustain: *sustain, Last: *last,
		Metrics: splitList(*metrics),
	}
	t, err := ledger.ExtractTrend(l, opts)
	if err != nil {
		return err
	}
	if *jsonOut {
		canon, err := t.MarshalCanonical()
		if err != nil {
			return err
		}
		_, err = stdout.Write(canon)
		return err
	}
	t.WriteTable(stdout)
	return nil
}

func cmdGate(args []string, stdout, stderr io.Writer) error {
	fs := newFlagSet("gate", stderr)
	var (
		dir        = fs.String("ledger", "", "ledger directory")
		gated      = fs.String("gate", "", "comma list of metrics whose drift fails the gate (default wall_ns,allocs)")
		sustain    = fs.Int("sustain", 1, "newest same-env entries that must all exceed the envelope to fail")
		minHistory = fs.Int("min-history", 2, "same-env history entries required before gating")
		rel        = fs.Float64("rel-threshold", perf.DefaultRelThreshold, "relative envelope (fraction of the rolling median)")
		jsonOut    = fs.Bool("json", false, "emit the gate result as canonical JSON on stdout")
	)
	if err := parse(fs, args); err != nil {
		return err
	}
	l, err := openLedger(*dir)
	if err != nil {
		return err
	}
	opts := ledger.GateOptions{
		Envelope: perf.Envelope{RelThreshold: *rel},
		Gated:    splitList(*gated),
		Sustain:  *sustain, MinHistory: *minHistory,
	}
	res, err := ledger.Gate(l, opts)
	if err != nil {
		return err
	}
	if *jsonOut {
		canon, err := res.MarshalCanonical()
		if err != nil {
			return err
		}
		if _, err := stdout.Write(canon); err != nil {
			return err
		}
	} else {
		res.WriteText(stdout)
	}
	if !res.OK() {
		first := res.Findings[0]
		return perf.Exit(perf.ExitDrift, fmt.Errorf("gate failed: %d finding(s), first: %s", len(res.Findings), first.Detail))
	}
	return nil
}

func splitList(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	for _, m := range strings.Split(s, ",") {
		if m = strings.TrimSpace(m); m != "" {
			out = append(out, m)
		}
	}
	return out
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-1] + "…"
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}
