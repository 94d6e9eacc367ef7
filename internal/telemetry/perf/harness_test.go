package perf

import (
	"context"
	"errors"
	"testing"
)

func TestRunSuitesProducesSealedPack(t *testing.T) {
	work := func(ctx context.Context) error {
		s := 0
		for i := 0; i < 1_000_00; i++ {
			s += i
		}
		if s < 0 {
			return errors.New("impossible")
		}
		return nil
	}
	suite := SuiteSpec{
		Name: "synthetic", DatasetHash: "deadbeef", Seed: 7, N: 42, K: 3,
		Benchmarks: []BenchmarkSpec{
			{Name: "loop", Setup: func(ctx context.Context) (func(context.Context) error, error) {
				return work, nil
			}},
			{Name: "alloc", Setup: func(ctx context.Context) (func(context.Context) error, error) {
				return func(ctx context.Context) error {
					buf := make([]byte, 1<<16)
					_ = buf
					return nil
				}, nil
			}},
		},
	}
	pack, err := RunSuites(context.Background(), []SuiteSpec{suite}, Options{Reps: 3})
	if err != nil {
		t.Fatal(err)
	}
	if pack.Schema != Schema || pack.Version != Version {
		t.Errorf("bad schema/version: %s/%d", pack.Schema, pack.Version)
	}
	if pack.Suite != "synthetic" || pack.Reps != 3 {
		t.Errorf("bad suite identity: %s reps=%d", pack.Suite, pack.Reps)
	}
	if pack.Env.DatasetHash != "deadbeef" || pack.Env.N != 42 || pack.Env.GoVersion == "" {
		t.Errorf("bad env fingerprint: %+v", pack.Env)
	}
	if pack.Manifest == nil {
		t.Fatal("pack not sealed")
	}
	if len(pack.Benchmarks) != 2 {
		t.Fatalf("want 2 benchmarks, got %d", len(pack.Benchmarks))
	}
	// Names are suite-prefixed and sorted.
	if pack.Benchmarks[0].Name != "synthetic/alloc" || pack.Benchmarks[1].Name != "synthetic/loop" {
		t.Errorf("benchmark names: %s, %s", pack.Benchmarks[0].Name, pack.Benchmarks[1].Name)
	}
	for _, b := range pack.Benchmarks {
		for _, metric := range []string{MetricWallNS, MetricAllocs, MetricAllocBytes, MetricHeapBytes, MetricGoroutines} {
			s, ok := b.Metrics[metric]
			if !ok {
				t.Errorf("%s: missing metric %s", b.Name, metric)
				continue
			}
			if len(s.Samples) != 3 {
				t.Errorf("%s/%s: %d samples, want 3", b.Name, metric, len(s.Samples))
			}
		}
		if wall := b.Metrics[MetricWallNS]; wall.Median <= 0 {
			t.Errorf("%s: non-positive wall median %v", b.Name, wall.Median)
		}
	}
	// The sealed pack round-trips through the verifier.
	raw, err := CanonicalMarshal(pack)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(raw); err != nil {
		t.Fatalf("harness pack failed verification: %v", err)
	}
}

func TestRunSuitesPropagatesErrors(t *testing.T) {
	boom := errors.New("boom")
	suite := SuiteSpec{Name: "s", Benchmarks: []BenchmarkSpec{
		{Name: "bad", Setup: func(ctx context.Context) (func(context.Context) error, error) {
			return nil, boom
		}},
	}}
	if _, err := RunSuites(context.Background(), []SuiteSpec{suite}, Options{Reps: 1}); !errors.Is(err, boom) {
		t.Errorf("setup error not propagated: %v", err)
	}
	if _, err := RunSuites(context.Background(), nil, Options{}); ExitCode(err) != ExitInvalid {
		t.Errorf("empty suite selection should be invalid input: %v", err)
	}
}

func TestRunSuitesHonorsCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	suite := SuiteSpec{Name: "s", Benchmarks: []BenchmarkSpec{
		{Name: "never", Setup: func(ctx context.Context) (func(context.Context) error, error) {
			t.Error("setup ran under a cancelled context")
			return func(context.Context) error { return nil }, nil
		}},
	}}
	if _, err := RunSuites(ctx, []SuiteSpec{suite}, Options{Reps: 1}); !errors.Is(err, context.Canceled) {
		t.Errorf("want context.Canceled, got %v", err)
	}
}
