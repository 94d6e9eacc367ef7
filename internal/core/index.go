package core

import (
	"fmt"
	"math"
	"reflect"
	"sort"
)

// UnaryIndex is a 1-ary quality index (Definition 3 with m=1): it maps one
// property vector to a real number measuring an aggregate feature of the
// anonymization.
type UnaryIndex struct {
	// Name identifies the index in reports ("P_k-anon", "P_s-avg", ...).
	Name string
	// F computes the index value.
	F func(PropertyVector) float64
	// HigherIsBetter records the orientation of the index so comparators
	// and panels can interpret raw values uniformly.
	HigherIsBetter bool
}

// PKAnon is the paper's §3 unary index for k-anonymity on the
// class-size property vector: P_k-anon(s) = min(s). For T3a it is 3.
var PKAnon = UnaryIndex{Name: "P_k-anon", F: minOf, HigherIsBetter: true}

// PSAvg is the paper's §3 average-class-size index:
// P_s-avg(s) = Σ s_i / N. For T3a it is 3.4.
var PSAvg = UnaryIndex{Name: "P_s-avg", F: meanOf, HigherIsBetter: true}

// PLDiv is the paper's §3 ℓ-diversity index applied to the
// sensitive-value-count property vector; the paper reports the minimum
// count, which is 1 for T3a. (The count property follows the convention
// that ℓ-diversity-style privacy improves as the minimum representation of
// a sensitive value grows; see EXPERIMENTS.md for the discussion.)
var PLDiv = UnaryIndex{Name: "P_l-div", F: minOf, HigherIsBetter: true}

// PMax is the maximum element, an occasionally useful aggregate.
var PMax = UnaryIndex{Name: "P_max", F: maxOf, HigherIsBetter: true}

// PSum is the element sum.
var PSum = UnaryIndex{Name: "P_sum", F: sumOf, HigherIsBetter: true}

// PMedian is the median element.
var PMedian = UnaryIndex{Name: "P_median", F: medianOf, HigherIsBetter: true}

// Norm selects the distance used by the §5.1 rank index. The paper leaves
// the norm unspecified ("distance from Dmax"); Euclidean is the default.
type Norm uint8

const (
	// L2 is the Euclidean norm (the default).
	L2 Norm = iota
	// L1 is the Manhattan norm: total per-tuple shortfall.
	L1
	// LInf is the Chebyshev norm: the single worst tuple's shortfall —
	// the rank view closest in spirit to the minimum-based scalar models.
	LInf
)

// String names the norm.
func (n Norm) String() string {
	switch n {
	case L1:
		return "L1"
	case LInf:
		return "Linf"
	case L2:
		return "L2"
	default:
		return fmt.Sprintf("Norm(%d)", uint8(n))
	}
}

// PRank builds the §5.1 rank index for a given most-desired vector Dmax:
// P_rank(D) = ||D - Dmax||₂. LOWER values are better (closer to the
// ideal); the index is oriented accordingly.
func PRank(dmax PropertyVector) UnaryIndex { return PRankWith(dmax, L2) }

// PRankWith is PRank under a selectable norm.
func PRankWith(dmax PropertyVector, norm Norm) UnaryIndex {
	ref := dmax.Clone()
	return UnaryIndex{
		Name:           "P_rank-" + norm.String(),
		F:              func(d PropertyVector) float64 { return rankDistance(d, ref, norm) },
		HigherIsBetter: false,
	}
}

// rankDistance is ||d - ref|| under norm, or NaN when the lengths differ.
func rankDistance(d, ref PropertyVector, norm Norm) float64 {
	if len(d) != len(ref) {
		return math.NaN()
	}
	switch norm {
	case L1:
		s := 0.0
		for i := range d {
			s += math.Abs(d[i] - ref[i])
		}
		return s
	case LInf:
		m := 0.0
		for i := range d {
			if a := math.Abs(d[i] - ref[i]); a > m {
				m = a
			}
		}
		return m
	default:
		s := 0.0
		for i := range d {
			diff := d[i] - ref[i]
			s += diff * diff
		}
		return math.Sqrt(s)
	}
}

// BinaryIndex is a 2-ary quality index (Definition 3 with m=2): a relative
// measure of one anonymization's effectiveness over another.
type BinaryIndex struct {
	// Name identifies the index ("P_cov", "P_spr", ...).
	Name string
	// F computes the index value for the ordered pair (a, b).
	F func(a, b PropertyVector) float64

	// fused is the tournament kernel of the package's PCov, PSpr and
	// PHvLog; it is nil for every other index.
	fused *pairKernel
}

// pairKernel plays a binary index over a whole tournament field: prep, when
// set, derives each entrant's logs once, and play returns P(a,b) and P(b,a)
// of two prepared entrants in one pass, bit-identical to calling f in each
// direction.
type pairKernel struct {
	f    func(a, b PropertyVector) float64
	prep func(v PropertyVector) (logs PropertyVector, ok bool)
	play func(a, b entrant) (ab, ba float64)
}

// entrant is a tournament entrant as a kernel plays it.
type entrant struct {
	v    PropertyVector
	logs PropertyVector // element-wise logs, for PHvLog only
}

// withKernel returns the index named name computing f, with its tournament
// kernel attached.
func withKernel(name string, f func(a, b PropertyVector) float64,
	prep func(PropertyVector) (PropertyVector, bool), play func(a, b entrant) (ab, ba float64)) BinaryIndex {
	return BinaryIndex{Name: name, F: f, fused: &pairKernel{f: f, prep: prep, play: play}}
}

// kernel returns the index's tournament kernel, or nil when it has none or
// F no longer is the function the kernel reproduces (a copy of PCov whose F
// was replaced, say).
func (idx BinaryIndex) kernel() *pairKernel {
	if idx.fused == nil || reflect.ValueOf(idx.F).Pointer() != reflect.ValueOf(idx.fused.f).Pointer() {
		return nil
	}
	return idx.fused
}

// prepareAll prepares every entrant, reporting false when one fails the
// kernel's precondition.
func (k *pairKernel) prepareAll(vectors []PropertyVector) ([]entrant, bool) {
	out := make([]entrant, len(vectors))
	for i, v := range vectors {
		out[i].v = v
		if k.prep != nil {
			logs, ok := k.prep(v)
			if !ok {
				return nil, false
			}
			out[i].logs = logs
		}
	}
	return out, true
}

// PBinary is the paper's §3 example binary index: the number of entries of
// a strictly greater than the corresponding entries of b. For the T3a/T3b
// class-size vectors s and t, P_binary(s,t)=0 and P_binary(t,s)=7.
var PBinary = BinaryIndex{Name: "P_binary", F: func(a, b PropertyVector) float64 {
	n := 0
	for i := range a {
		if a[i] > b[i] {
			n++
		}
	}
	return float64(n)
}}

// PCov is the §5.2 coverage index: the fraction of tuples whose property
// value in a is at least that in b. P_cov(D1,D2) > P_cov(D2,D1) ⟺ D1 ▶cov D2.
var PCov = withKernel("P_cov", func(a, b PropertyVector) float64 {
	if len(a) == 0 {
		return math.NaN()
	}
	n := 0
	for i := range a {
		if a[i] >= b[i] {
			n++
		}
	}
	return float64(n) / float64(len(a))
}, nil, func(p, q entrant) (float64, float64) {
	a, b := p.v, q.v
	nab, nba := 0, 0
	for i := range a {
		if a[i] >= b[i] {
			nab++
		}
		if b[i] >= a[i] {
			nba++
		}
	}
	return float64(nab) / float64(len(a)), float64(nba) / float64(len(a))
})

// PSpr is the §5.3 spread index: the total magnitude by which a exceeds b
// over the tuples where a is better. P_spr(D1,D2)=0 ⟺ D2 ≿ D1.
var PSpr = withKernel("P_spr", func(a, b PropertyVector) float64 {
	s := 0.0
	for i := range a {
		if d := a[i] - b[i]; d > 0 {
			s += d
		}
	}
	return s
}, nil, func(p, q entrant) (float64, float64) {
	// b[i]-a[i] is exactly -(a[i]-b[i]) in IEEE arithmetic, so the mirror
	// sum adds the same values in the same order as P_spr(b,a).
	a, b := p.v, q.v
	sab, sba := 0.0, 0.0
	for i := range a {
		if d := a[i] - b[i]; d > 0 {
			sab += d
		} else if d < 0 {
			sba -= d
		}
	}
	return sab, sba
})

// PHv is the §5.4 hypervolume index: the volume of property space on which
// a is solely ≿-better, computed as Π a_i − Π min(a_i, b_i). It assumes
// non-negative vectors (class sizes, counts). For data sets beyond a few
// hundred tuples the products overflow float64; use PHvLog there.
var PHv = BinaryIndex{Name: "P_hv", F: func(a, b PropertyVector) float64 {
	pa, pm := 1.0, 1.0
	for i := range a {
		pa *= a[i]
		pm *= math.Min(a[i], b[i])
	}
	return pa - pm
}}

// PHvLog is PHv in log space for large data sets: the log-ratio of the two
// hypervolumes, log(Π a_i) − log(Π min(a_i,b_i)) = Σ log a_i − Σ log
// min(a_i,b_i). It requires strictly positive vectors and returns NaN
// otherwise. The min-volume term is symmetric in a and b, so
// PHvLog(a,b) − PHvLog(b,a) = Σ log a_i − Σ log b_i, which has the same sign
// as PHv's Π a_i − Π b_i in exact arithmetic: ▶hv-log orders pairs as ▶hv
// does wherever both are defined. The comparator still sums the per-pair
// terms rather than comparing Σ log a_i with Σ log b_i, so that near-tie
// outcomes stay bit-stable.
//
// Its tournament kernel takes every entrant's logs once. A term
// log a_i − log min(a_i,b_i) is an exact zero wherever a_i ≤ b_i, so the
// kernel sums log a_i − log b_i over a_i > b_i alone, in index order, and
// gets the same floats.
var PHvLog = withKernel("P_hv-log", func(a, b PropertyVector) float64 {
	s := 0.0
	for i := range a {
		m := math.Min(a[i], b[i])
		if a[i] <= 0 || m <= 0 {
			return math.NaN()
		}
		s += math.Log(a[i]) - math.Log(m)
	}
	return s
}, func(v PropertyVector) (PropertyVector, bool) {
	logs := make(PropertyVector, len(v))
	for i, x := range v {
		if x <= 0 {
			return nil, false
		}
		logs[i] = math.Log(x)
	}
	return logs, true
}, func(p, q entrant) (float64, float64) {
	a, b, la, lb := p.v, q.v, p.logs, q.logs
	sab, sba := 0.0, 0.0
	for i := range a {
		if a[i] > b[i] {
			sab += la[i] - lb[i]
		} else if b[i] > a[i] {
			sba += lb[i] - la[i]
		}
	}
	return sab, sba
})

// EvalBinary validates the pair and applies the index.
func EvalBinary(idx BinaryIndex, a, b PropertyVector) (float64, error) {
	if err := checkPair(a, b); err != nil {
		return 0, err
	}
	return idx.F(a, b), nil
}

// EvalUnary validates the vector and applies the index.
func EvalUnary(idx UnaryIndex, v PropertyVector) (float64, error) {
	if err := v.Validate(); err != nil {
		return 0, err
	}
	return idx.F(v), nil
}

func minOf(v PropertyVector) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	m := v[0]
	for _, x := range v[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

func maxOf(v PropertyVector) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	m := v[0]
	for _, x := range v[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

func sumOf(v PropertyVector) float64 {
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s
}

func meanOf(v PropertyVector) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	return sumOf(v) / float64(len(v))
}

func medianOf(v PropertyVector) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// EntropyL converts a per-class sensitive-value distribution's entropy into
// the ℓ of entropy ℓ-diversity: ℓ = exp(H). Exposed here because the
// experiment harness reports it alongside the unary indices. The input is a
// discrete distribution; zero-probability entries are skipped.
func EntropyL(dist []float64) (float64, error) {
	total := 0.0
	for _, p := range dist {
		if p < 0 || math.IsNaN(p) {
			return 0, fmt.Errorf("core: negative probability %v", p)
		}
		total += p
	}
	if total == 0 {
		return 0, fmt.Errorf("core: empty distribution")
	}
	h := 0.0
	for _, p := range dist {
		if p == 0 {
			continue
		}
		q := p / total
		h -= q * math.Log(q)
	}
	return math.Exp(h), nil
}
