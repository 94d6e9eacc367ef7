package core

import (
	"fmt"
	"sort"
)

// TournamentResult ranks a field of anonymizations by pairwise ▶-better
// wins — the natural way to apply the paper's binary comparators to more
// than two anonymizations at once (§5.4's "tournament style mechanism"
// applied literally).
type TournamentResult struct {
	// Wins[i] counts the pairwise comparisons entrant i won.
	Wins []int
	// Ties[i] counts entrant i's ties.
	Ties []int
	// Order lists entrant indices from most to fewest wins (stable for
	// equal wins: earlier entrants first).
	Order []int
}

// Tournament plays each unordered pair of property vectors once under the
// comparator and tallies wins; antisymmetry (Compare(a,b) =
// Compare(b,a).Flip()) settles the reverse match. Every entrant is
// validated before any pair is played: all must be non-empty, finite and of
// one length.
//
// ▶cov, ▶spr, ▶hv-log and ▶rank play a prepared field: the per-entrant work
// (hv-log's logarithms, rank's distance from Dmax) is done once, and each
// pair is scored in both directions in one pass. The outcomes are those of
// the pairwise Compare, which plays every other comparator and any field a
// kernel cannot take.
func Tournament(vectors []PropertyVector, cmp Comparator) (*TournamentResult, error) {
	if err := checkField(len(vectors), cmp == nil); err != nil {
		return nil, err
	}
	for i, v := range vectors {
		if err := v.Validate(); err != nil {
			return nil, fmt.Errorf("core: tournament entrant %d: %w", i, err)
		}
		if len(v) != len(vectors[0]) {
			return nil, fmt.Errorf("core: tournament entrant %d: size %d, entrant 0 has size %d", i, len(v), len(vectors[0]))
		}
	}
	var match func(i, j int) (Outcome, error)
	switch c := cmp.(type) {
	case fromBinary:
		match = c.prepare(vectors)
	case RankBetter:
		match = c.prepare(vectors)
	}
	if match == nil {
		match = func(i, j int) (Outcome, error) { return cmp.Compare(vectors[i], vectors[j]) }
	}
	return play(len(vectors), match)
}

// TournamentSets is Tournament over r-property sets with a multi-property
// comparator (WTD, LEX or GOAL). Every set must be valid and match entrant
// 0's property count and data-set size. WTD over PCov, PSpr and PHvLog plays
// a prepared field; other schemes and indices play pairwise.
func TournamentSets(sets []PropertySet, cmp SetComparator) (*TournamentResult, error) {
	if err := checkField(len(sets), cmp == nil); err != nil {
		return nil, err
	}
	for i, s := range sets {
		if err := s.Validate(); err != nil {
			return nil, fmt.Errorf("core: tournament entrant %d: %w", i, err)
		}
		if len(s) != len(sets[0]) {
			return nil, fmt.Errorf("core: tournament entrant %d: %d properties, entrant 0 has %d", i, len(s), len(sets[0]))
		}
		if len(s[0]) != len(sets[0][0]) {
			return nil, fmt.Errorf("core: tournament entrant %d: data-set size %d, entrant 0 has size %d", i, len(s[0]), len(sets[0][0]))
		}
	}
	var match func(i, j int) (Outcome, error)
	if w, ok := cmp.(*WTD); ok && w != nil {
		match = w.prepare(sets)
	}
	if match == nil {
		match = func(i, j int) (Outcome, error) { return cmp.Compare(sets[i], sets[j]) }
	}
	return play(len(sets), match)
}

func checkField(entrants int, nilComparator bool) error {
	if entrants < 2 {
		return fmt.Errorf("core: tournament needs at least 2 entrants, got %d", entrants)
	}
	if nilComparator {
		return fmt.Errorf("core: nil comparator")
	}
	return nil
}

// play runs match on each unordered pair (i<j) and tallies the field.
func play(n int, match func(i, j int) (Outcome, error)) (*TournamentResult, error) {
	res := &TournamentResult{
		Wins: make([]int, n),
		Ties: make([]int, n),
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			out, err := match(i, j)
			if err != nil {
				return nil, fmt.Errorf("core: tournament pair (%d,%d): %w", i, j, err)
			}
			switch out {
			case LeftBetter:
				res.Wins[i]++
			case RightBetter:
				res.Wins[j]++
			default:
				res.Ties[i]++
				res.Ties[j]++
			}
		}
	}
	res.Order = rankByWins(res.Wins)
	return res, nil
}

func rankByWins(wins []int) []int {
	order := make([]int, len(wins))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return wins[order[a]] > wins[order[b]]
	})
	return order
}
