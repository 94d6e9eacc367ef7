package perfsuite

import (
	"context"
	"strings"
	"testing"

	"microdata/internal/telemetry/perf"
)

func TestResolveSelections(t *testing.T) {
	opts := Options{N: 60, K: 3, Seed: 1}
	all, err := Resolve("all", opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != len(Names()) {
		t.Fatalf("all resolved to %d suites, want %d", len(all), len(Names()))
	}
	for i, s := range all {
		if s.Name != Names()[i] {
			t.Errorf("suite %d = %s, want %s (canonical order)", i, s.Name, Names()[i])
		}
		if s.DatasetHash == "" || s.N != 60 || s.K != 3 {
			t.Errorf("suite %s missing fingerprint: %+v", s.Name, s)
		}
	}
	two, err := Resolve("ingest,groupby", opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(two) != 2 || two[0].Name != "groupby" || two[1].Name != "ingest" {
		t.Errorf("comma selection resolved wrong: %+v", two)
	}
	if _, err := Resolve("nope", opts); perf.ExitCode(err) != perf.ExitInvalid {
		t.Errorf("unknown suite should be invalid input, got %v", err)
	}
	if _, err := Resolve(" , ", opts); perf.ExitCode(err) != perf.ExitInvalid {
		t.Errorf("empty selection should be invalid input, got %v", err)
	}
}

// TestSuitesRunEndToEnd runs every suite at a tiny N for one repetition
// and checks the produced pack seals, verifies and carries the expected
// benchmark roster.
func TestSuitesRunEndToEnd(t *testing.T) {
	suites, err := Resolve("all", Options{N: 60, K: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	pack, err := perf.RunSuites(context.Background(), suites, perf.Options{Reps: 1})
	if err != nil {
		t.Fatal(err)
	}
	if pack.Suite != "attack,engine,groupby,groupby-parallel,ingest,typedcol" {
		t.Errorf("pack suite = %q", pack.Suite)
	}
	want := []string{
		"attack/prosecutor/datafly/naive",
		"attack/prosecutor/datafly/indexed-serial",
		"attack/prosecutor/datafly/indexed-parallel",
		"attack/prosecutor/mondrian/naive",
		"attack/prosecutor/mondrian/indexed-serial",
		"attack/prosecutor/mondrian/indexed-parallel",
		"attack/journalist/mondrian/naive",
		"attack/journalist/mondrian/indexed",
		"engine/sweep/optimal",
		"engine/sweep/datafly",
		"groupby/columnar",
		"groupby/signatures",
		"groupby-parallel/sequential",
		"groupby-parallel/parallel",
		"ingest/readcsv-columnar",
		"ingest/ingester-chunks",
		"ingest/ingest-pipelined",
		"typedcol/minmax/typed",
		"typedcol/minmax/value-scan",
		"typedcol/sum/typed",
		"typedcol/ranks/typed",
	}
	for _, name := range want {
		b := pack.Benchmark(name)
		if b == nil {
			t.Errorf("missing benchmark %s", name)
			continue
		}
		wall, ok := b.Metrics[perf.MetricWallNS]
		if !ok || wall.Median <= 0 {
			t.Errorf("%s: bad wall series %+v", name, wall)
		}
	}
	if len(pack.Benchmarks) != len(want) {
		var got []string
		for _, b := range pack.Benchmarks {
			got = append(got, b.Name)
		}
		t.Errorf("benchmark roster: got %d [%s], want %d", len(pack.Benchmarks), strings.Join(got, ", "), len(want))
	}
	raw, err := perf.CanonicalMarshal(pack)
	if err != nil {
		t.Fatal(err)
	}
	if err := perf.Verify(raw); err != nil {
		t.Errorf("suite pack failed verification: %v", err)
	}
	// A pack compared against itself never drifts.
	d, err := perf.Compare(pack, pack, perf.CompareOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !d.OK() {
		t.Errorf("self-comparison drifted: %+v", d)
	}
}
