package privacy

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"microdata/internal/dataset"
	"microdata/internal/eqclass"
)

// The reference t-closeness path: every class rebuilds the canonical key
// order and the global distribution by rescanning the whole column. It is
// O(N) per class and kept only as the oracle the Support path must match
// bit for bit.

// distribution tallies the sensitive values of the selected rows (all rows
// when rows is nil) into a probability vector over the canonical ordering
// of ALL values appearing in the full column, so every distribution shares
// one support. Ordered attributes sort numerically when possible, else
// lexicographically.
func distribution(col []dataset.Value, rows []int, ordered bool) ([]string, []float64) {
	seen := map[string]int{}
	var keys []string
	numeric := true
	nums := map[string]float64{}
	for _, v := range col {
		k := v.Key()
		if _, ok := seen[k]; !ok {
			seen[k] = 0
			keys = append(keys, k)
			if v.Kind() == dataset.Num {
				nums[k] = v.Float()
			} else {
				numeric = false
			}
		}
	}
	if ordered && numeric {
		sort.Slice(keys, func(i, j int) bool { return nums[keys[i]] < nums[keys[j]] })
	} else {
		sort.Strings(keys)
	}
	pos := make(map[string]int, len(keys))
	for i, k := range keys {
		pos[k] = i
	}
	counts := make([]float64, len(keys))
	total := 0.0
	add := func(v dataset.Value) {
		counts[pos[v.Key()]]++
		total++
	}
	if rows == nil {
		for _, v := range col {
			add(v)
		}
	} else {
		for _, r := range rows {
			add(col[r])
		}
	}
	if total > 0 {
		for i := range counts {
			counts[i] /= total
		}
	}
	return keys, counts
}

func refTCloseness(p *eqclass.Partition, sensitive []dataset.Value, ordered bool) float64 {
	_, global := distribution(sensitive, nil, ordered)
	worst := 0.0
	for _, rows := range p.Classes {
		_, local := distribution(sensitive, rows, ordered)
		if d := emd(local, global, ordered); d > worst {
			worst = d
		}
	}
	return worst
}

func refTClosenessVector(p *eqclass.Partition, sensitive []dataset.Value, ordered bool) []float64 {
	_, global := distribution(sensitive, nil, ordered)
	out := make([]float64, p.N())
	for _, rows := range p.Classes {
		_, local := distribution(sensitive, rows, ordered)
		d := emd(local, global, ordered)
		for _, r := range rows {
			out[r] = d
		}
	}
	return out
}

func refTClosenessVectorFromCounts(p *eqclass.Partition, sensitive []dataset.Value, counts []map[string]int, ordered bool) []float64 {
	keys, global := distribution(sensitive, nil, ordered)
	pos := make(map[string]int, len(keys))
	for i, k := range keys {
		pos[k] = i
	}
	out := make([]float64, p.N())
	for ci, m := range counts {
		local := make([]float64, len(keys))
		total := 0.0
		for k, cnt := range m {
			local[pos[k]] = float64(cnt)
			total += float64(cnt)
		}
		if total > 0 {
			for i := range local {
				local[i] /= total
			}
		}
		d := emd(local, global, ordered)
		for _, r := range p.Classes[ci] {
			out[r] = d
		}
	}
	return out
}

func refClassEMD(col []dataset.Value, rows []int, ordered bool) float64 {
	_, global := distribution(col, nil, ordered)
	_, local := distribution(col, rows, ordered)
	return emd(local, global, ordered)
}

// randomSensitive draws a sensitive column of one of four shapes: short
// strings, integers, fractional numbers with negatives, signed zeros and
// NaN (ties in the numeric order), or numbers mixed with strings (which the
// ordered metric must order lexicographically).
func randomSensitive(rng *rand.Rand, n, shape int) []dataset.Value {
	card := rng.Intn(30) + 1
	col := make([]dataset.Value, n)
	for i := range col {
		v := rng.Intn(card)
		switch shape {
		case 0:
			col[i] = dataset.StrVal(fmt.Sprintf("v%d", v))
		case 1:
			col[i] = dataset.NumVal(float64(v * 7 % 31))
		case 2:
			switch v {
			case 1:
				col[i] = dataset.NumVal(math.Copysign(0, -1))
			case 2:
				col[i] = dataset.NumVal(0)
			case 3:
				col[i] = dataset.NumVal(math.NaN())
			default:
				col[i] = dataset.NumVal(float64(v)/3 - 2)
			}
		default:
			if v%3 == 0 {
				col[i] = dataset.StrVal(fmt.Sprintf("s%d", v))
			} else {
				col[i] = dataset.NumVal(float64(v))
			}
		}
	}
	return col
}

// randomGroups splits 0..n-1 into a random partition: all singletons, the
// whole table, or random class sizes over a shuffled row order.
func randomGroups(rng *rand.Rand, n int) [][]int {
	perm := rng.Perm(n)
	switch rng.Intn(4) {
	case 0:
		groups := make([][]int, n)
		for i, r := range perm {
			groups[i] = []int{r}
		}
		return groups
	case 1:
		return [][]int{perm}
	}
	var groups [][]int
	for i := 0; i < n; {
		sz := rng.Intn(6) + 1
		if i+sz > n {
			sz = n - i
		}
		groups = append(groups, perm[i:i+sz])
		i += sz
	}
	return groups
}

// TestTClosenessMatchesReference cross-validates all four t-closeness entry
// points against the per-class rescan with exact float equality.
func TestTClosenessMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 400; trial++ {
		n := rng.Intn(60) + 1
		col := randomSensitive(rng, n, trial%4)
		p, err := eqclass.FromGroups(n, randomGroups(rng, n))
		if err != nil {
			t.Fatal(err)
		}
		counts, err := p.ValueCounts(col)
		if err != nil {
			t.Fatal(err)
		}
		for _, ordered := range []bool{false, true} {
			tag := fmt.Sprintf("trial %d ordered=%v", trial, ordered)
			got, err := TCloseness(p, col, ordered)
			if err != nil {
				t.Fatal(err)
			}
			if want := refTCloseness(p, col, ordered); got != want {
				t.Fatalf("%s: TCloseness = %v, reference %v", tag, got, want)
			}
			vec, err := TClosenessVector(p, col, ordered)
			if err != nil {
				t.Fatal(err)
			}
			assertSameBits(t, tag+" TClosenessVector", vec, refTClosenessVector(p, col, ordered))
			vec, err = TClosenessVectorFromCounts(p, col, counts, ordered)
			if err != nil {
				t.Fatal(err)
			}
			assertSameBits(t, tag+" TClosenessVectorFromCounts", vec, refTClosenessVectorFromCounts(p, col, counts, ordered))
			probes := append([][]int{allRows(n), {rng.Intn(n)}}, p.Classes...)
			for _, rows := range probes {
				got, err := ClassEMD(col, rows, ordered)
				if err != nil {
					t.Fatal(err)
				}
				if want := refClassEMD(col, rows, ordered); got != want {
					t.Fatalf("%s: ClassEMD(%v) = %v, reference %v", tag, rows, got, want)
				}
			}
		}
	}
}

func assertSameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, reference %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s[%d] = %v, reference %v", what, i, got[i], want[i])
		}
	}
}
