package measure

import (
	"context"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"microdata/internal/algorithm"
	"microdata/internal/algorithm/algtest"
	"microdata/internal/algorithm/datafly"
	"microdata/internal/algorithm/mondrian"
	"microdata/internal/algorithm/muargus"
	"microdata/internal/dataset"
	"microdata/internal/paperdata"
	"microdata/internal/privacy"
)

func TestSummarizePaperT3a(t *testing.T) {
	s, err := Summarize(ctx(t, paperdata.T3a()))
	if err != nil {
		t.Fatal(err)
	}
	if s.Rows != 10 || s.Classes != 3 || s.KAnonymity != 3 {
		t.Errorf("summary = %+v", s)
	}
	if s.DistinctL != 2 {
		t.Errorf("distinct ℓ = %d, want 2", s.DistinctL)
	}
	if s.Discernibility != 34 { // 3²+3²+4²
		t.Errorf("DM = %v, want 34", s.Discernibility)
	}
	if s.ClassSizeMin != 3 || s.ClassSizeMax != 4 || s.ClassSizeMedian != 3 {
		t.Errorf("class-size sketch = %+v", s)
	}
	if s.ClassSizeGini <= 0 || s.ClassSizeGini >= 1 {
		t.Errorf("Gini = %v", s.ClassSizeGini)
	}
	if s.LossMetric <= 0 || s.LossMetric >= 1 {
		t.Errorf("LM = %v", s.LossMetric)
	}
}

// TestSummarizePaperDiversity pins entropy ℓ and t for T3a and T3b, derived
// by hand from T1's marital-status column (rows 0–9):
//
//	CF-Spouse, Separated, Never Married, CF-Spouse, Divorced,
//	Spouse Absent, Divorced, Spouse Present, Separated, Separated
//
// Global distribution: CF-Spouse .2, Divorced .2, Never Married .1,
// Separated .3, Spouse Absent .1, Spouse Present .1.
//
// T3a's classes are {0,3,7}, {1,2,8} and {4,5,6,9}:
//   - {0,3,7} = CF-Spouse 2/3, Spouse Present 1/3. Entropy
//     H = ln 3 − (2/3)·ln 2, so ℓ = 3/2^(2/3) ≈ 1.88988. Total variation
//     distance ½(|2/3−.2| + |1/3−.1| + .2 + .1 + .3 + .1) = ½·1.4 = 0.7.
//   - {1,2,8} = Separated 2/3, Never Married 1/3: the same ℓ, and
//     ½(|2/3−.3| + |1/3−.1| + .2 + .2 + .1 + .1) = ½·1.2 = 0.6.
//   - {4,5,6,9} = Divorced 1/2, Spouse Absent 1/4, Separated 1/4:
//     H = (3/2)·ln 2, ℓ = 2^(3/2) ≈ 2.828; ½(.3 + .15 + .05 + .2 + .1 + .1)
//     = 0.45.
//
// T3b keeps {0,3,7} and merges the rest into {1,2,4,5,6,8,9} = Separated
// 3/7, Divorced 2/7, Never Married 1/7, Spouse Absent 1/7:
// ℓ = 7/(3^(3/7)·2^(2/7)) ≈ 3.586 and ½(.2 + .1 + 9/70 + 3/70 + 6/70 + 3/70)
// = 0.3.
//
// Both releases therefore have entropy ℓ = 3/2^(2/3) and t = 0.7, set by
// the class {0,3,7} they share.
func TestSummarizePaperDiversity(t *testing.T) {
	wantL := 3 / math.Cbrt(4)
	for name, anon := range map[string]func() *dataset.Table{"T3a": paperdata.T3a, "T3b": paperdata.T3b} {
		s, err := Summarize(ctx(t, anon()))
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(s.EntropyL-wantL) > 1e-12 {
			t.Errorf("%s: entropy ℓ = %v, want 3/2^(2/3) = %v", name, s.EntropyL, wantL)
		}
		if math.Abs(s.TCloseness-0.7) > 1e-12 {
			t.Errorf("%s: t = %v, want 0.7", name, s.TCloseness)
		}
	}
}

// TestSummarizeMatchesPrivacyOnCensus checks that the digest's distinct ℓ,
// entropy ℓ and t, read from the context's shared histograms, equal the
// standalone privacy functions exactly on real algorithm partitions.
func TestSummarizeMatchesPrivacyOnCensus(t *testing.T) {
	orig, cfg, err := algtest.CensusConfig(2000, 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	sensitive := orig.Column(orig.Schema.SensitiveIndex())
	for _, alg := range []algorithm.Algorithm{datafly.New(), mondrian.New(), muargus.New()} {
		r, err := algorithm.AnonymizeContext(context.Background(), alg, orig, cfg)
		if err != nil {
			t.Fatalf("%s: %v", alg.Name(), err)
		}
		c, err := NewContext(orig, r.Table, cfg.Taxonomies)
		if err != nil {
			t.Fatal(err)
		}
		s, err := Summarize(c)
		if err != nil {
			t.Fatal(err)
		}
		dl, err := privacy.DistinctLDiversity(c.Partition, sensitive)
		if err != nil {
			t.Fatal(err)
		}
		el, err := privacy.EntropyLDiversity(c.Partition, sensitive)
		if err != nil {
			t.Fatal(err)
		}
		tc, err := privacy.TCloseness(c.Partition, sensitive, false)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%s: %d classes, ℓ=%d, entropy ℓ=%v, t=%v", alg.Name(), s.Classes, dl, el, tc)
		if s.DistinctL != dl || s.EntropyL != el || s.TCloseness != tc {
			t.Errorf("%s (%d classes): summary (ℓ=%d, entropy ℓ=%v, t=%v), privacy (%d, %v, %v)",
				alg.Name(), s.Classes, s.DistinctL, s.EntropyL, s.TCloseness, dl, el, tc)
		}
	}
}

func TestSummaryJSONShape(t *testing.T) {
	s, err := Summarize(ctx(t, paperdata.T3b()))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{
		"\"rows\":", "\"k_anonymity\":", "\"loss_metric\":",
		"\"class_size_gini\":", "\"discernibility\":",
	} {
		if !strings.Contains(string(raw), key) {
			t.Errorf("JSON missing %s: %s", key, raw)
		}
	}
	var back Summary
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.KAnonymity != s.KAnonymity || back.LossMetric != s.LossMetric {
		t.Error("JSON round trip changed values")
	}
}

func TestSummarizeWithoutSensitive(t *testing.T) {
	// A sensitive-free schema yields a summary with the diversity fields
	// zeroed but everything else intact.
	orig := paperdata.T1()
	orig.Schema.Attrs[2].Role = 0 // demote MaritalStatus to insensitive
	anon := paperdata.T3a()
	anon.Schema.Attrs[2].Role = 0
	c, err := NewContext(orig, anon, nil)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Summarize(c)
	if err != nil {
		t.Fatal(err)
	}
	if s.DistinctL != 0 || s.EntropyL != 0 || s.TCloseness != 0 {
		t.Errorf("diversity fields should be zero: %+v", s)
	}
	if s.KAnonymity != 3 {
		t.Errorf("k = %d", s.KAnonymity)
	}
}
