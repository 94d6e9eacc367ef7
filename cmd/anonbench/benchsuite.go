package main

import (
	"context"
	"fmt"
	"io"

	"microdata/internal/perfsuite"
	"microdata/internal/telemetry/perf"
)

// benchSuite runs the named canonical benchmark suites (-bench-suite) under
// the perf harness and writes the sealed perf pack to out ("-" for stdout).
// The selection is resolved by perfsuite.Resolve ("all" or a comma list of
// suite names); progress lines go to errw so a stdout pack stays parseable.
func benchSuite(ctx context.Context, errw io.Writer, selection, out string, n, k int, seed int64, reps int) error {
	if reps < 1 {
		return perf.Invalidf("bench-reps must be >= 1 (got %d)", reps)
	}
	suites, err := perfsuite.Resolve(selection, perfsuite.Options{N: n, K: k, Seed: seed})
	if err != nil {
		return err
	}
	fmt.Fprintf(errw, "anonbench: running suites %q (n=%d, k=%d, seed=%d, reps=%d)\n",
		selection, n, k, seed, reps)
	pack, err := perf.RunSuites(ctx, suites, perf.Options{
		Reps: reps,
		Log: func(format string, args ...any) {
			fmt.Fprintf(errw, format+"\n", args...)
		},
	})
	if err != nil {
		return err
	}
	if err := perf.WriteFile(out, pack); err != nil {
		return fmt.Errorf("bench-out: %w", err)
	}
	if out != "-" {
		fmt.Fprintf(errw, "anonbench: wrote %s (%d benchmarks, digest %s)\n",
			out, len(pack.Benchmarks), pack.Manifest.Digest[:12])
	}
	return nil
}
