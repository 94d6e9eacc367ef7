package privacy

import (
	"fmt"
	"math"
	"sort"

	"microdata/internal/dataset"
	"microdata/internal/eqclass"
)

// Support is the canonical support of one sensitive column: its distinct
// values in the order t-closeness compares distributions over — numeric
// for the ordered metric on an all-numeric column, else by Value.Key — and
// the column's global probability vector over that order. It is built once
// per column in O(N + m log m), m the number of distinct values, and then
// scores any class in O(|class| + m).
type Support struct {
	ordered bool
	codes   []uint32       // row-aligned dictionary codes of the column
	rank    []int          // dictionary code → canonical position
	pos     map[string]int // Value.Key → canonical position
	global  []float64      // whole-column probabilities, canonical order
}

// NewSupport builds the support of a dictionary-encoded sensitive column
// under the ordered (true) or equal-distance (false) ground metric.
func NewSupport(col *dataset.Column, ordered bool) *Support {
	keys := col.DictKeys()
	// order starts in dictionary (first-appearance) order, so numbers that
	// compare equal or unordered (0 and -0, NaN) keep the tie order the
	// reference rescan gives them.
	order := make([]int, len(keys)) // canonical position → dictionary code
	for i := range order {
		order[i] = i
	}
	if ordered && col.IsNumeric() {
		nums := col.NumericDict()
		sort.Slice(order, func(i, j int) bool { return nums[order[i]] < nums[order[j]] })
	} else {
		sort.Slice(order, func(i, j int) bool { return keys[order[i]] < keys[order[j]] })
	}
	s := &Support{
		ordered: ordered,
		codes:   col.Codes(),
		rank:    make([]int, len(keys)),
		pos:     make(map[string]int, len(keys)),
		global:  make([]float64, len(keys)),
	}
	for i, code := range order {
		s.rank[code] = i
		s.pos[keys[code]] = i
	}
	for _, code := range s.codes {
		s.global[s.rank[code]]++
	}
	normalize(s.global, float64(len(s.codes)))
	return s
}

// supportOf dictionary-encodes a sensitive value column and builds its
// support.
func supportOf(vals []dataset.Value, ordered bool) *Support {
	col := dataset.NewColumn()
	col.Grow(len(vals))
	for _, v := range vals {
		col.Append(v)
	}
	return NewSupport(col, ordered)
}

// RowsEMD returns the earth mover's distance between the distribution of
// the selected rows and the whole column's. Rows must index the column.
func (s *Support) RowsEMD(rows []int) float64 {
	local := make([]float64, len(s.global))
	for _, r := range rows {
		local[s.rank[s.codes[r]]]++
	}
	return s.score(local, float64(len(rows)))
}

// CountsEMD is RowsEMD for a class given as its sensitive-value histogram
// keyed by Value.Key (one Partition.ValueCounts entry). A key the column
// does not hold is an error.
func (s *Support) CountsEMD(hist map[string]int) (float64, error) {
	local := make([]float64, len(s.global))
	total := 0.0
	for k, cnt := range hist {
		j, ok := s.pos[k]
		if !ok {
			return 0, fmt.Errorf("privacy: histogram key %q not in sensitive column", k)
		}
		local[j] = float64(cnt)
		total += float64(cnt)
	}
	return s.score(local, total), nil
}

// countsEMDs scores every class histogram.
func (s *Support) countsEMDs(counts []map[string]int) ([]float64, error) {
	out := make([]float64, len(counts))
	for ci, m := range counts {
		d, err := s.CountsEMD(m)
		if err != nil {
			return nil, err
		}
		out[ci] = d
	}
	return out, nil
}

// score normalizes a class tally in place and measures it against the
// global distribution.
func (s *Support) score(local []float64, total float64) float64 {
	normalize(local, total)
	return emd(local, s.global, s.ordered)
}

// normalize turns a tally into probabilities.
func normalize(counts []float64, total float64) {
	if total > 0 {
		for i := range counts {
			counts[i] /= total
		}
	}
}

// classEMDs scores every class of the partition against the column's
// support.
func classEMDs(p *eqclass.Partition, sensitive []dataset.Value, ordered bool) ([]float64, error) {
	if len(sensitive) != p.N() {
		return nil, fmt.Errorf("privacy: sensitive column has %d values for %d rows", len(sensitive), p.N())
	}
	s := supportOf(sensitive, ordered)
	perClass := make([]float64, p.NumClasses())
	for ci, rows := range p.Classes {
		perClass[ci] = s.RowsEMD(rows)
	}
	return perClass, nil
}

// TCloseness computes the t of the partition under Li et al.'s t-closeness:
// the maximum earth mover's distance between any class's sensitive-value
// distribution and the global distribution. The ground distance is chosen
// by ordered: false uses the equal-distance metric for nominal attributes
// (EMD = total variation distance), true uses the ordered-distance metric
// for numeric or ordinal attributes.
func TCloseness(p *eqclass.Partition, sensitive []dataset.Value, ordered bool) (float64, error) {
	perClass, err := classEMDs(p, sensitive, ordered)
	if err != nil {
		return 0, err
	}
	if p.N() == 0 {
		return 0, fmt.Errorf("privacy: t-closeness of empty partition")
	}
	return maxOf(perClass), nil
}

// maxOf returns the largest element, 0 for none.
func maxOf(xs []float64) float64 {
	worst := 0.0
	for _, x := range xs {
		if x > worst {
			worst = x
		}
	}
	return worst
}

// IsTClose reports whether the partition satisfies t-closeness at threshold t.
func IsTClose(p *eqclass.Partition, sensitive []dataset.Value, t float64, ordered bool) (bool, error) {
	if t < 0 || t > 1 || math.IsNaN(t) {
		return false, fmt.Errorf("privacy: t must be in [0,1], got %v", t)
	}
	got, err := TCloseness(p, sensitive, ordered)
	if err != nil {
		return false, err
	}
	return got <= t+1e-12, nil
}

// TClosenessVector assigns every tuple the EMD between its class's
// sensitive distribution and the global one — a per-tuple t-closeness
// property. Under the paper's higher-is-better convention callers should
// negate it (lower distance means better privacy).
func TClosenessVector(p *eqclass.Partition, sensitive []dataset.Value, ordered bool) ([]float64, error) {
	perClass, err := classEMDs(p, sensitive, ordered)
	if err != nil {
		return nil, err
	}
	return spread(p, perClass), nil
}

// spread expands per-class scores to a per-tuple vector.
func spread(p *eqclass.Partition, perClass []float64) []float64 {
	out := make([]float64, p.N())
	for i := range out {
		out[i] = perClass[p.ClassOf[i]]
	}
	return out
}

// TClosenessVectorFromCounts is TClosenessVector computed from precomputed
// per-class sensitive histograms (Partition.ValueCounts output). The class
// distributions come from the integer tallies — exact in float64 — so the
// result is identical to TClosenessVector's.
func TClosenessVectorFromCounts(p *eqclass.Partition, sensitive []dataset.Value, counts []map[string]int, ordered bool) ([]float64, error) {
	if len(sensitive) != p.N() {
		return nil, fmt.Errorf("privacy: sensitive column has %d values for %d rows", len(sensitive), p.N())
	}
	if err := checkCounts(p, counts); err != nil {
		return nil, err
	}
	perClass, err := supportOf(sensitive, ordered).countsEMDs(counts)
	if err != nil {
		return nil, err
	}
	return spread(p, perClass), nil
}

// ClassEMD returns the earth mover's distance between the sensitive-value
// distribution of the selected rows and the distribution of the whole
// column — the quantity t-closeness bounds per equivalence class. Callers
// scoring many classes of one column build its Support once instead.
func ClassEMD(col []dataset.Value, rows []int, ordered bool) (float64, error) {
	if len(col) == 0 {
		return 0, fmt.Errorf("privacy: ClassEMD of empty column")
	}
	if len(rows) == 0 {
		return 0, fmt.Errorf("privacy: ClassEMD of empty class")
	}
	for _, r := range rows {
		if r < 0 || r >= len(col) {
			return 0, fmt.Errorf("privacy: ClassEMD row %d out of range", r)
		}
	}
	return supportOf(col, ordered).RowsEMD(rows), nil
}

// emd computes the earth mover's distance between two aligned
// distributions. For the equal-distance ground metric (nominal attributes)
// EMD reduces to the total variation distance ½Σ|p−q|. For the ordered
// metric it is (1/(m−1))·Σ_i |Σ_{j<=i}(p_j − q_j)| (Li et al. 2007).
func emd(p, q []float64, ordered bool) float64 {
	if len(p) != len(q) {
		return math.NaN()
	}
	if !ordered {
		s := 0.0
		for i := range p {
			s += math.Abs(p[i] - q[i])
		}
		return s / 2
	}
	m := len(p)
	if m == 1 {
		return 0
	}
	cum, s := 0.0, 0.0
	for i := 0; i < m; i++ {
		cum += p[i] - q[i]
		s += math.Abs(cum)
	}
	return s / float64(m-1)
}
