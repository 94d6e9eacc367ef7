package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
)

// defaultSeed is the seed whose output digests are pinned.
const defaultSeed = 1

// expectedJSON maps "<workload>/n=<N>/seed=<seed>" to the SHA-256 digest
// of a job's outputs: chosen nodes and cut counts, class and suppression
// counts, the SHA-256 of every property and risk vector, tournament
// orders, the sealed result pack's digest and the release CSV's SHA-256.
// A run whose key is listed must reproduce the digest; any other run
// checks invariants only.
//
//go:embed expected.json
var expectedJSON []byte

func loadExpected() (map[string]string, error) {
	m := map[string]string{}
	if err := json.Unmarshal(expectedJSON, &m); err != nil {
		return nil, fmt.Errorf("expected.json: %w", err)
	}
	return m, nil
}

func expectKey(workload string, n int, seed int64) string {
	return fmt.Sprintf("%s/n=%d/seed=%d", workload, n, seed)
}
