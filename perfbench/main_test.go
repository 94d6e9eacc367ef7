package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// tinyN sizes each workload so a job takes well under a second and every
// check still holds: at release-1m's fixed node a small draw needs more
// suppression than the budget allows, so its smoke size is larger.
var tinyN = map[string]int{
	"compare-10k":     1000,
	"rank-lattice-5k": 500,
	"release-1m":      20000,
}

type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// runBench runs the benchmark in-process and decodes its last line.
func runBench(t *testing.T, expected map[string]string, args ...string) (int, string, result) {
	t.Helper()
	o, err := parseOptions(args, os.Stderr)
	if err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	code := runOptions(o, expected, &stdout, &stderr)
	out := strings.TrimRight(stdout.String(), "\n")
	var res result
	if err := json.Unmarshal([]byte(out[strings.LastIndexByte(out, '\n')+1:]), &res); err != nil {
		t.Fatalf("last line is not the result: %v\n%s\n%s", err, out, stderr.String())
	}
	return code, out, res
}

func tinyArgs(workload string, trace string) []string {
	return []string{"--workload", workload, "--n", strconv.Itoa(tinyN[workload]), "--seed", "1",
		"--seconds", "0.001", "--trace", trace}
}

var digestLine = regexp.MustCompile(`(?m)^output digest ([0-9a-f]{64})$`)

func outputDigest(t *testing.T, out string) string {
	t.Helper()
	m := digestLine.FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("no output digest in\n%s", out)
	}
	return m[1]
}

// TestWorkloadsPrintEveryMetric runs each workload at a tiny size, untraced
// and traced, and checks the result names every metric BENCHMARK.json
// lists, with its unit, and reports no failure.
func TestWorkloadsPrintEveryMetric(t *testing.T) {
	bf := readBenchmarkFile(t)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the benchmark %q", i, w.Name, workloads[i].name)
		}
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the benchmark %d", len(bf.PerLayer), len(perLayer))
	}
	for i, m := range bf.PerLayer {
		if want := perLayer[i]; m.Name != want.name || m.Unit != want.unit || m.Better != want.better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the benchmark %+v", i, m, want)
		}
	}
	expected, err := loadExpected()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		for trace, names := range map[string][]struct{ Name, Unit, Better string }{"0": bf.EndToEnd, "1": bf.PerLayer} {
			code, out, res := runBench(t, expected, tinyArgs(w.name, trace)...)
			if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s trace=%s: exit %d, %+v\n%s", w.name, trace, code, res, out)
			}
			if len(res.Metrics) != len(names) {
				t.Errorf("%s trace=%s: %d metrics, BENCHMARK.json lists %d", w.name, trace, len(res.Metrics), len(names))
			}
			for _, n := range names {
				m, ok := res.Metrics[n.Name]
				if !ok || m.Unit != n.Unit {
					t.Errorf("%s trace=%s: metric %s = %+v, want unit %s", w.name, trace, n.Name, m, n.Unit)
				}
			}
			if trace == "0" {
				for name, m := range res.Metrics {
					if m.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, name, m.Value)
					}
				}
			}
		}
	}
}

// TestPinnedDigests checks that the tiny-size runs reproduce the digests
// pinned in expected.json, and that a corrupted pin fails the run.
func TestPinnedDigests(t *testing.T) {
	expected, err := loadExpected()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		key := expectKey(w.name, tinyN[w.name], defaultSeed)
		want, ok := expected[key]
		if !ok {
			t.Fatalf("expected.json pins no digest for %s", key)
		}
		code, out, res := runBench(t, expected, tinyArgs(w.name, "0")...)
		if code != 0 || !res.Correct || outputDigest(t, out) != want {
			t.Fatalf("%s: exit %d, %+v\n%s", key, code, res, out)
		}

		corrupted := map[string]string{key: strings.Repeat("0", 64)}
		code, out, res = runBench(t, corrupted, tinyArgs(w.name, "0")...)
		if code == 0 || res.Correct || res.Failed == 0 {
			t.Fatalf("%s with a corrupted pin: exit %d, %+v\n%s", key, code, res, out)
		}
		if !strings.Contains(out, "FAILED: job 1: output digest") {
			t.Errorf("%s: the failure does not name the digest mismatch:\n%s", key, out)
		}
	}
}

// TestTracedRunMatchesUntraced checks that wrapping every layer call in a
// span leaves the outputs alone: the traced run's jobs (untraced and traced
// alternately, each compared with the first) produce the untraced run's
// digest, also with one worker.
func TestTracedRunMatchesUntraced(t *testing.T) {
	for _, w := range workloads {
		_, plain, _ := runBench(t, nil, tinyArgs(w.name, "0")...)
		code, traced, res := runBench(t, nil, tinyArgs(w.name, "1")...)
		if code != 0 || !res.Correct {
			t.Fatalf("%s traced: exit %d, %+v\n%s", w.name, code, res, traced)
		}
		if !strings.Contains(traced, "2 jobs") {
			t.Errorf("%s: the traced run should run one untraced and one traced job:\n%s", w.name, traced)
		}
		_, single, _ := runBench(t, nil, append(tinyArgs(w.name, "0"), "--workers", "1")...)
		if a, b, c := outputDigest(t, plain), outputDigest(t, traced), outputDigest(t, single); a != b || a != c {
			t.Errorf("%s: digests untraced %s, traced %s, one worker %s", w.name, a, b, c)
		}
	}
}
