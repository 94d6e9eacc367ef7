package perf

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzVerify drives the envelope codec shared by perf packs, result packs
// and the ledger index with arbitrary bytes, seeded with the committed
// artifacts of all three kinds. The codec must never panic; every input it
// accepts must also canonicalize, and must be rejected once a
// non-whitespace byte is appended after it.
//
// The seeds run on every `go test`. To fuzz, cap the per-input
// minimisation, which otherwise spends up to a minute on each new input
// grown from a multi-kilobyte seed:
//
//	go test ./internal/telemetry/perf -run '^$' -fuzz FuzzVerify -fuzzminimizetime 1s
func FuzzVerify(f *testing.F) {
	root := filepath.Join("..", "..", "..")
	seeds, err := filepath.Glob(filepath.Join(root, "bench", "*.json"))
	if err != nil {
		f.Fatal(err)
	}
	seeds = append(seeds,
		filepath.Join(root, "bench", "ledger", "index.json"),
		filepath.Join(root, "results", "census-1k.json"))
	for _, path := range seeds {
		raw, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	f.Add([]byte(`{"manifest":{"algorithm":"sha256","digest":"00"}}`))
	f.Add([]byte(`{"schema":"microdata/perf-pack","version":1} x`))
	f.Fuzz(func(t *testing.T, raw []byte) {
		// The typed reader must not panic either; its verdict is Verify's
		// plus the schema check.
		_, _ = Read(raw)
		if Verify(raw) != nil {
			return
		}
		if _, err := Canonicalize(raw); err != nil {
			t.Fatalf("accepted document does not canonicalize: %v", err)
		}
		tailed := append(append([]byte(nil), raw...), 'x')
		if err := Verify(tailed); ExitCode(err) != ExitVerification {
			t.Fatalf("accepted document plus a trailing byte: exit %d (%v), want %d", ExitCode(err), err, ExitVerification)
		}
	})
}
