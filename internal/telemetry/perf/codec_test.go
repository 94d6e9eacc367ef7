package perf_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"microdata/internal/telemetry/ledger"
	"microdata/internal/telemetry/perf"
	"microdata/internal/telemetry/resultpack"
)

// repoFile reads a committed artifact relative to the repository root.
func repoFile(t *testing.T, rel string) []byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "..", "..", rel))
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestTrailingContentFailsVerification pins that every artifact kind, on
// every path that accepts it — the bare verifier, the kind's reader and a
// ledger append — rejects anything but whitespace after the sealed
// document as an edit after sealing (exit 2), and accepts a clean
// document with or without its trailing newline.
func TestTrailingContentFailsVerification(t *testing.T) {
	appendTo := func(raw []byte) error {
		l, err := ledger.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		_, _, err = l.Append(raw)
		return err
	}
	openIndex := func(raw []byte) error {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "index.json"), raw, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := ledger.Open(dir)
		return err
	}
	kinds := []struct {
		name    string
		path    string
		readers map[string]func([]byte) error
	}{
		{"perf pack", "bench/ci-baseline.json", map[string]func([]byte) error{
			"perf.Read":     func(raw []byte) error { _, err := perf.Read(raw); return err },
			"ledger.Append": appendTo,
		}},
		{"result pack", "results/census-1k.json", map[string]func([]byte) error{
			"resultpack.Read": func(raw []byte) error { _, err := resultpack.Read(raw); return err },
			"ledger.Append":   appendTo,
		}},
		{"ledger index", "bench/ledger/index.json", map[string]func([]byte) error{
			"ledger.Open": openIndex,
		}},
	}
	tails := []struct {
		name string
		tail string
		want int
	}{
		{"no tail", "", perf.ExitOK},
		{"newline tail", "\n", perf.ExitOK},
		{"JSON object tail", `{"suite":"evil"}`, perf.ExitVerification},
		{"garbage tail", ` garbage!!`, perf.ExitVerification},
	}
	for _, kind := range kinds {
		doc := bytes.TrimRight(repoFile(t, kind.path), "\n")
		for _, tail := range tails {
			raw := append(bytes.Clone(doc), tail.tail...)
			if got := perf.ExitCode(perf.Verify(raw)); got != tail.want {
				t.Errorf("%s, %s: perf.Verify exit %d, want %d", kind.name, tail.name, got, tail.want)
			}
			for name, read := range kind.readers {
				if got := perf.ExitCode(read(raw)); got != tail.want {
					t.Errorf("%s, %s: %s exit %d, want %d", kind.name, tail.name, name, got, tail.want)
				}
			}
		}
	}
}
