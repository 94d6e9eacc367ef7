package core

import (
	"fmt"
	"math"
)

// PropertySet is the paper's Definition 2 payload: the r property vectors
// induced by an r-property anonymization on one data set. Element i of two
// sets being compared must measure the same property.
type PropertySet []PropertyVector

// Validate checks the set is non-empty, every vector is finite, and all
// vectors share one length N.
func (s PropertySet) Validate() error {
	if len(s) == 0 {
		return fmt.Errorf("core: empty property set")
	}
	n := len(s[0])
	for i, v := range s {
		if err := v.Validate(); err != nil {
			return fmt.Errorf("core: property %d: %w", i, err)
		}
		if len(v) != n {
			return fmt.Errorf("core: property %d has size %d, property 0 has size %d", i, len(v), n)
		}
	}
	return nil
}

func checkSetPair(a, b PropertySet) error {
	if err := a.Validate(); err != nil {
		return err
	}
	if err := b.Validate(); err != nil {
		return err
	}
	if len(a) != len(b) {
		return fmt.Errorf("core: comparing property sets with %d and %d properties", len(a), len(b))
	}
	if len(a[0]) != len(b[0]) {
		return fmt.Errorf("core: comparing property sets over data sets of size %d and %d", len(a[0]), len(b[0]))
	}
	return nil
}

// WeaklyDominatesSet reports Υ1 ≿ Υ2 per Table 4: every property vector of
// the first set weakly dominates its counterpart in the second.
func WeaklyDominatesSet(a, b PropertySet) (bool, error) {
	if err := checkSetPair(a, b); err != nil {
		return false, err
	}
	for i := range a {
		w, err := WeaklyDominates(a[i], b[i])
		if err != nil || !w {
			return false, err
		}
	}
	return true, nil
}

// StronglyDominatesSet reports Υ1 ≻ Υ2 per Table 4: weak dominance on every
// property and strong dominance on at least one.
func StronglyDominatesSet(a, b PropertySet) (bool, error) {
	weak, err := WeaklyDominatesSet(a, b)
	if err != nil || !weak {
		return false, err
	}
	for i := range a {
		s, err := StronglyDominates(a[i], b[i])
		if err != nil {
			return false, err
		}
		if s {
			return true, nil
		}
	}
	return false, nil
}

// SetComparator compares r-property anonymizations through their property
// sets (§5.5–5.7 preference schemes).
type SetComparator interface {
	// Name identifies the scheme ("WTD", "LEX", "GOAL").
	Name() string
	// Compare evaluates which set is preferable.
	Compare(a, b PropertySet) (Outcome, error)
}

// WTD is the §5.5 weighted-sum comparator ▶WTD:
// P_WTD(Υ1,Υ2) = Σ w_i · P_i(D_1i, D_2i), compared symmetrically. The
// weights express the relative importance of each property; different
// binary indices may score different properties.
type WTD struct {
	// Weights holds one positive weight per property; the constructor
	// validates they sum to 1 within a small tolerance, per the paper's
	// convention 0 < w_i < 1, Σ w_i = 1.
	Weights []float64
	// Indices holds one binary quality index per property (e.g. PCov for
	// both a privacy property and a utility property, as in the paper's
	// §5.5 example).
	Indices []BinaryIndex
}

// NewWTD validates and builds a weighted-sum comparator.
func NewWTD(weights []float64, indices []BinaryIndex) (*WTD, error) {
	if len(weights) == 0 || len(weights) != len(indices) {
		return nil, fmt.Errorf("core: WTD needs matching non-empty weights (%d) and indices (%d)", len(weights), len(indices))
	}
	sum := 0.0
	for i, w := range weights {
		if w <= 0 || w >= 1 || math.IsNaN(w) {
			if !(len(weights) == 1 && w == 1) {
				return nil, fmt.Errorf("core: WTD weight %d = %v outside (0,1)", i, w)
			}
		}
		sum += w
	}
	if math.Abs(sum-1) > 1e-9 {
		return nil, fmt.Errorf("core: WTD weights sum to %v, want 1", sum)
	}
	return &WTD{Weights: append([]float64(nil), weights...), Indices: indices}, nil
}

// Name implements SetComparator.
func (w *WTD) Name() string { return "WTD" }

// Score computes P_WTD(Υ1, Υ2).
func (w *WTD) Score(a, b PropertySet) (float64, error) {
	if err := checkSetPair(a, b); err != nil {
		return 0, err
	}
	if len(a) != len(w.Weights) {
		return 0, fmt.Errorf("core: WTD configured for %d properties, got %d", len(w.Weights), len(a))
	}
	s := 0.0
	for i := range a {
		v, err := EvalBinary(w.Indices[i], a[i], b[i])
		if err != nil {
			return 0, err
		}
		if math.IsNaN(v) {
			return 0, fmt.Errorf("core: WTD: index %q undefined on property %d", w.Indices[i].Name, i)
		}
		s += w.Weights[i] * v
	}
	return s, nil
}

// Compare implements SetComparator via P_WTD(Υ1,Υ2) vs P_WTD(Υ2,Υ1).
func (w *WTD) Compare(a, b PropertySet) (Outcome, error) {
	ab, err := w.Score(a, b)
	if err != nil {
		return Tie, err
	}
	ba, err := w.Score(b, a)
	if err != nil {
		return Tie, err
	}
	return higherWins(ab, ba), nil
}

// prepare returns the fused match over a validated field, or nil when the
// weights or indices do not fit the field, an index has no kernel or an
// entrant fails one; the pairwise Compare then plays the field and reports
// any error. Each match sums the per-property kernels in property order, as
// Score does.
func (w *WTD) prepare(sets []PropertySet) func(i, j int) (Outcome, error) {
	if len(sets[0]) != len(w.Weights) || len(w.Indices) != len(w.Weights) {
		return nil
	}
	kernels := make([]*pairKernel, len(w.Indices))
	fields := make([][]entrant, len(w.Indices))
	vectors := make([]PropertyVector, len(sets))
	for p, idx := range w.Indices {
		if kernels[p] = idx.kernel(); kernels[p] == nil {
			return nil
		}
		for e, s := range sets {
			vectors[e] = s[p]
		}
		var ok bool
		if fields[p], ok = kernels[p].prepareAll(vectors); !ok {
			return nil
		}
	}
	return func(i, j int) (Outcome, error) {
		ab, ba := 0.0, 0.0
		for p, k := range kernels {
			vab, vba := k.play(fields[p][i], fields[p][j])
			ab += w.Weights[p] * vab
			ba += w.Weights[p] * vba
		}
		return higherWins(ab, ba), nil
	}
}

// LEX is the §5.6 ε-lexicographic comparator ▶LEX. Properties are ordered
// by decreasing desirability; P_LEX(Υ1,Υ2) is the first position where Υ1
// is significantly superior (index difference exceeding ε_i). A set wins if
// its first point of superiority comes earlier in the ordering.
type LEX struct {
	// Eps is the significance vector: ε_i is the maximum tolerable
	// difference in P values for property i.
	Eps []float64
	// Indices holds one binary quality index per property.
	Indices []BinaryIndex
}

// NewLEX validates and builds an ε-lexicographic comparator.
func NewLEX(eps []float64, indices []BinaryIndex) (*LEX, error) {
	if len(eps) == 0 || len(eps) != len(indices) {
		return nil, fmt.Errorf("core: LEX needs matching non-empty eps (%d) and indices (%d)", len(eps), len(indices))
	}
	for i, e := range eps {
		if e < 0 || math.IsNaN(e) {
			return nil, fmt.Errorf("core: LEX significance %d = %v is negative", i, e)
		}
	}
	return &LEX{Eps: append([]float64(nil), eps...), Indices: indices}, nil
}

// Name implements SetComparator.
func (l *LEX) Name() string { return "LEX" }

// Score computes P_LEX(Υ1, Υ2): the 1-based position of the first property
// where Υ1 is significantly superior, or len(Υ1)+1 when there is none.
func (l *LEX) Score(a, b PropertySet) (int, error) {
	if err := checkSetPair(a, b); err != nil {
		return 0, err
	}
	if len(a) != len(l.Eps) {
		return 0, fmt.Errorf("core: LEX configured for %d properties, got %d", len(l.Eps), len(a))
	}
	for i := range a {
		ab, err := EvalBinary(l.Indices[i], a[i], b[i])
		if err != nil {
			return 0, err
		}
		ba, err := EvalBinary(l.Indices[i], b[i], a[i])
		if err != nil {
			return 0, err
		}
		if math.IsNaN(ab) || math.IsNaN(ba) {
			return 0, fmt.Errorf("core: LEX: index %q undefined on property %d", l.Indices[i].Name, i)
		}
		if ab-ba > l.Eps[i] {
			return i + 1, nil
		}
	}
	return len(a) + 1, nil
}

// Compare implements SetComparator: P_LEX(Υ1,Υ2) < P_LEX(Υ2,Υ1) ⟺ Υ1 ▶LEX Υ2.
func (l *LEX) Compare(a, b PropertySet) (Outcome, error) {
	ab, err := l.Score(a, b)
	if err != nil {
		return Tie, err
	}
	ba, err := l.Score(b, a)
	if err != nil {
		return Tie, err
	}
	switch {
	case ab < ba:
		return LeftBetter, nil
	case ba < ab:
		return RightBetter, nil
	default:
		return Tie, nil
	}
}

// GOAL is the §5.7 goal-based comparator ▶GOAL: each property has a desired
// quality-index value g_i and P_GOAL(Υ1,Υ2) = Σ (P_i(D_1i,D_2i) − g_i)² is
// the squared error from the goals; LOWER is better.
type GOAL struct {
	// Goals holds the desired index value per property.
	Goals []float64
	// Indices holds one binary quality index per property.
	Indices []BinaryIndex
}

// NewGOAL validates and builds a goal-based comparator.
func NewGOAL(goals []float64, indices []BinaryIndex) (*GOAL, error) {
	if len(goals) == 0 || len(goals) != len(indices) {
		return nil, fmt.Errorf("core: GOAL needs matching non-empty goals (%d) and indices (%d)", len(goals), len(indices))
	}
	for i, g := range goals {
		if math.IsNaN(g) || math.IsInf(g, 0) {
			return nil, fmt.Errorf("core: GOAL goal %d = %v is not finite", i, g)
		}
	}
	return &GOAL{Goals: append([]float64(nil), goals...), Indices: indices}, nil
}

// Name implements SetComparator.
func (g *GOAL) Name() string { return "GOAL" }

// Score computes P_GOAL(Υ1, Υ2).
func (g *GOAL) Score(a, b PropertySet) (float64, error) {
	if err := checkSetPair(a, b); err != nil {
		return 0, err
	}
	if len(a) != len(g.Goals) {
		return 0, fmt.Errorf("core: GOAL configured for %d properties, got %d", len(g.Goals), len(a))
	}
	s := 0.0
	for i := range a {
		v, err := EvalBinary(g.Indices[i], a[i], b[i])
		if err != nil {
			return 0, err
		}
		if math.IsNaN(v) {
			return 0, fmt.Errorf("core: GOAL: index %q undefined on property %d", g.Indices[i].Name, i)
		}
		d := v - g.Goals[i]
		s += d * d
	}
	return s, nil
}

// Compare implements SetComparator:
// P_GOAL(Υ1,Υ2) < P_GOAL(Υ2,Υ1) ⟺ Υ1 ▶GOAL Υ2.
func (g *GOAL) Compare(a, b PropertySet) (Outcome, error) {
	ab, err := g.Score(a, b)
	if err != nil {
		return Tie, err
	}
	ba, err := g.Score(b, a)
	if err != nil {
		return Tie, err
	}
	switch {
	case ab < ba:
		return LeftBetter, nil
	case ba < ab:
		return RightBetter, nil
	default:
		return Tie, nil
	}
}

// NormalizeTogether rescales two aligned vectors into [0,1] by their joint
// min and max, the normalization the paper advises before computing
// weighted sums. Constant pairs map to all-zeros. The inputs are unchanged.
func NormalizeTogether(a, b PropertyVector) (PropertyVector, PropertyVector, error) {
	if err := checkPair(a, b); err != nil {
		return nil, nil, err
	}
	lo := math.Min(minOf(a), minOf(b))
	hi := math.Max(maxOf(a), maxOf(b))
	na := make(PropertyVector, len(a))
	nb := make(PropertyVector, len(b))
	if hi == lo {
		return na, nb, nil
	}
	span := hi - lo
	for i := range a {
		na[i] = (a[i] - lo) / span
		nb[i] = (b[i] - lo) / span
	}
	return na, nb, nil
}
