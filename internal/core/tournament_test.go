package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

func TestTournamentOnPaperTables(t *testing.T) {
	// T3a, T3b, T4 under coverage: the §5.2 chain — T3b beats T4 beats
	// T3a.
	vectors := []PropertyVector{sT3a, tT3b, sT4}
	res, err := Tournament(vectors, CovBetter())
	if err != nil {
		t.Fatal(err)
	}
	if res.Wins[1] != 2 {
		t.Errorf("T3b should win both matches, wins = %v", res.Wins)
	}
	if res.Wins[2] != 1 || res.Wins[0] != 0 {
		t.Errorf("chain broken: wins = %v", res.Wins)
	}
	if res.Order[0] != 1 || res.Order[1] != 2 || res.Order[2] != 0 {
		t.Errorf("order = %v, want [1 2 0]", res.Order)
	}
	// Under the classical min comparator T4 wins and T3a/T3b tie.
	res, err = Tournament(vectors, MinBetter())
	if err != nil {
		t.Fatal(err)
	}
	if res.Order[0] != 2 {
		t.Errorf("min tournament should rank T4 first: %v", res.Order)
	}
	if res.Ties[0] != 1 || res.Ties[1] != 1 {
		t.Errorf("T3a/T3b should tie under min: ties = %v", res.Ties)
	}
}

func TestTournamentErrors(t *testing.T) {
	if _, err := Tournament([]PropertyVector{sT3a}, CovBetter()); err == nil {
		t.Error("single entrant should fail")
	}
	if _, err := Tournament([]PropertyVector{sT3a, tT3b}, nil); err == nil {
		t.Error("nil comparator should fail")
	}
	if _, err := Tournament([]PropertyVector{sT3a, {1, 2}}, CovBetter()); err == nil {
		t.Error("size mismatch should fail")
	}
}

func TestTournamentSets(t *testing.T) {
	wtd, err := NewWTD([]float64{0.5, 0.5}, []BinaryIndex{PCov, PCov})
	if err != nil {
		t.Fatal(err)
	}
	sets := []PropertySet{
		{sT3a, uT3a},
		{tT3b, uT3b},
	}
	res, err := TournamentSets(sets, wtd)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's §5.5 tie.
	if res.Ties[0] != 1 || res.Ties[1] != 1 || res.Wins[0] != 0 || res.Wins[1] != 0 {
		t.Errorf("expected the §5.5 tie: %+v", res)
	}
	if _, err := TournamentSets(sets[:1], wtd); err == nil {
		t.Error("single entrant should fail")
	}
	if _, err := TournamentSets(sets, nil); err == nil {
		t.Error("nil comparator should fail")
	}
}

// Total matches are conserved: Σwins + Σties/2 = n(n-1)/2.
func TestTournamentConservationQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	for trial := 0; trial < 300; trial++ {
		n := rng.Intn(5) + 2
		size := rng.Intn(4) + 1
		vectors := make([]PropertyVector, n)
		for i := range vectors {
			v := make(PropertyVector, size)
			for j := range v {
				v[j] = float64(rng.Intn(6))
			}
			vectors[i] = v
		}
		res, err := Tournament(vectors, SprBetter())
		if err != nil {
			t.Fatal(err)
		}
		wins, ties := 0, 0
		for i := range res.Wins {
			wins += res.Wins[i]
			ties += res.Ties[i]
		}
		if wins+ties/2 != n*(n-1)/2 {
			t.Fatalf("conservation violated: wins=%d ties=%d n=%d", wins, ties, n)
		}
		if ties%2 != 0 {
			t.Fatalf("odd total ties %d", ties)
		}
		// Order sorted by wins.
		for i := 1; i < len(res.Order); i++ {
			if res.Wins[res.Order[i-1]] < res.Wins[res.Order[i]] {
				t.Fatal("order not sorted by wins")
			}
		}
	}
}

// oracle plays every pair through the pairwise Compare, the reference the
// prepared tournaments must reproduce.
func oracle(n int, compare func(i, j int) (Outcome, error)) (*TournamentResult, error) {
	res := &TournamentResult{Wins: make([]int, n), Ties: make([]int, n)}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			out, err := compare(i, j)
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

// randomField draws 2–12 entrants of one length in 1–64: small integer
// class sizes (many ties) or, half the time, positive reals.
func randomField(rng *rand.Rand) []PropertyVector {
	n, size := rng.Intn(11)+2, rng.Intn(64)+1
	real := rng.Intn(2) == 0
	field := make([]PropertyVector, n)
	for i := range field {
		v := make(PropertyVector, size)
		for j := range v {
			if real {
				v[j] = rng.Float64()*10 + 1e-3
			} else {
				v[j] = float64(rng.Intn(4) + 1)
			}
		}
		field[i] = v
	}
	return field
}

func sameResult(t *testing.T, what string, got, want *TournamentResult) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: prepared %+v, pairwise %+v", what, got, want)
	}
}

func TestPreparedTournamentMatchesPairwiseQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 400; trial++ {
		field := randomField(rng)
		dmax := make(PropertyVector, len(field[0]))
		for i := range dmax {
			dmax[i] = 12
		}
		comparators := []Comparator{CovBetter(), SprBetter(), HvLogBetter()}
		for _, norm := range []Norm{L1, L2, LInf} {
			for _, eps := range []float64{0, 0.5} {
				comparators = append(comparators, RankBetter{Dmax: dmax, Eps: eps, Norm: norm})
			}
		}
		for _, cmp := range comparators {
			var prepared bool
			switch c := cmp.(type) {
			case fromBinary:
				prepared = c.prepare(field) != nil
			case RankBetter:
				prepared = c.prepare(field) != nil
			}
			if !prepared {
				t.Fatalf("%s did not take the prepared path", cmp.Name())
			}
			got, err := Tournament(field, cmp)
			if err != nil {
				t.Fatal(err)
			}
			want, err := oracle(len(field), func(i, j int) (Outcome, error) { return cmp.Compare(field[i], field[j]) })
			if err != nil {
				t.Fatal(err)
			}
			sameResult(t, cmp.Name(), got, want)
		}

		sets := make([]PropertySet, len(field))
		for i := range sets {
			u := make(PropertyVector, len(field[0]))
			for j := range u {
				u[j] = float64(rng.Intn(3))
			}
			sets[i] = PropertySet{field[i], u}
		}
		for _, pair := range [][]BinaryIndex{{PCov, PCov}, {PSpr, PCov}, {PCov, PSpr}, {PSpr, PSpr}} {
			w, err := NewWTD([]float64{0.3, 0.7}, pair)
			if err != nil {
				t.Fatal(err)
			}
			if w.prepare(sets) == nil {
				t.Fatal("WTD over cov/spr did not take the prepared path")
			}
			got, err := TournamentSets(sets, w)
			if err != nil {
				t.Fatal(err)
			}
			want, err := oracle(len(sets), func(i, j int) (Outcome, error) { return w.Compare(sets[i], sets[j]) })
			if err != nil {
				t.Fatal(err)
			}
			sameResult(t, "WTD "+pair[0].Name+"/"+pair[1].Name, got, want)
		}
	}
}

// Prepared kernels must give the index's own floats, not just its verdicts.
func TestPairKernelsBitIdenticalQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for trial := 0; trial < 500; trial++ {
		field := randomField(rng)
		for _, idx := range []BinaryIndex{PCov, PSpr, PHvLog} {
			k := idx.kernel()
			prepped, ok := k.prepareAll(field)
			if !ok {
				t.Fatalf("%s rejected a positive field", idx.Name)
			}
			ab, ba := k.play(prepped[0], prepped[1])
			wantAB, wantBA := idx.F(field[0], field[1]), idx.F(field[1], field[0])
			if math.Float64bits(ab) != math.Float64bits(wantAB) || math.Float64bits(ba) != math.Float64bits(wantBA) {
				t.Fatalf("%s: kernel (%v,%v), F (%v,%v)", idx.Name, ab, ba, wantAB, wantBA)
			}
		}
	}
}

func TestPreparedTournamentErrorParity(t *testing.T) {
	field := []PropertyVector{{1, 2, 3}, {2, 2, 2}, {3, 0, 1}, {1, 1, 1}}
	pairwise := func(cmp Comparator) error {
		_, err := oracle(len(field), func(i, j int) (Outcome, error) { return cmp.Compare(field[i], field[j]) })
		return err
	}
	for _, cmp := range []Comparator{
		HvLogBetter(),
		RankBetter{Dmax: PropertyVector{3, 3}},
		RankBetter{Dmax: PropertyVector{3, 3, 3}, Eps: -1},
	} {
		_, got := Tournament(field, cmp)
		want := pairwise(cmp)
		if got == nil || want == nil || got.Error() != want.Error() {
			t.Errorf("%s: prepared error %v, pairwise error %v", cmp.Name(), got, want)
		}
	}
	sets := make([]PropertySet, len(field))
	for i, v := range field {
		sets[i] = PropertySet{v, v}
	}
	w, err := NewWTD([]float64{0.5, 0.5}, []BinaryIndex{PCov, PHvLog})
	if err != nil {
		t.Fatal(err)
	}
	_, got := TournamentSets(sets, w)
	_, want := oracle(len(sets), func(i, j int) (Outcome, error) { return w.Compare(sets[i], sets[j]) })
	if got == nil || want == nil || got.Error() != want.Error() {
		t.Errorf("WTD: prepared error %v, pairwise error %v", got, want)
	}
}

// An index the package did not build plays pairwise, whatever its name,
// and so does a copy of PCov whose F was replaced.
func TestUserIndexPlaysPairwise(t *testing.T) {
	atMost := func(a, b PropertyVector) float64 {
		n := 0
		for i := range a {
			if a[i] <= b[i] {
				n++
			}
		}
		return float64(n) / float64(len(a))
	}
	impostor := BinaryIndex{Name: "P_cov", F: atMost}
	edited := PCov
	edited.F = atMost
	field := []PropertyVector{sT3a, tT3b, sT4}
	sets := make([]PropertySet, len(field))
	for i, v := range field {
		sets[i] = PropertySet{v}
	}
	for _, idx := range []BinaryIndex{impostor, edited} {
		cmp := fromBinary{name: "cov", idx: idx}
		if cmp.prepare(field) != nil {
			t.Fatal("user index took the prepared path")
		}
		got, err := Tournament(field, cmp)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := oracle(len(field), func(i, j int) (Outcome, error) { return cmp.Compare(field[i], field[j]) })
		sameResult(t, "user index", got, want)
		// The reversed index crowns the coverage loser.
		if got.Order[0] != 0 {
			t.Errorf("reversed coverage should rank T3a first: %v", got.Order)
		}
		w, err := NewWTD([]float64{1}, []BinaryIndex{idx})
		if err != nil {
			t.Fatal(err)
		}
		if w.prepare(sets) != nil {
			t.Fatal("WTD over a user index took the prepared path")
		}
		gotSets, err := TournamentSets(sets, w)
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, "WTD over a user index", gotSets, got)
	}
}

// Permuting the entrants permutes the tallies.
func TestTournamentPermutationQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	w, err := NewWTD([]float64{0.5, 0.5}, []BinaryIndex{PSpr, PCov})
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 200; trial++ {
		field := randomField(rng)
		perm := rng.Perm(len(field))
		shuffled := make([]PropertyVector, len(field))
		sets, shuffledSets := make([]PropertySet, len(field)), make([]PropertySet, len(field))
		for i, p := range perm {
			shuffled[i] = field[p]
		}
		for i := range field {
			sets[i] = PropertySet{field[i], field[(i+1)%len(field)]}
		}
		for i, p := range perm {
			shuffledSets[i] = sets[p]
		}
		check := func(name string, a, b *TournamentResult) {
			for i, p := range perm {
				if b.Wins[i] != a.Wins[p] || b.Ties[i] != a.Ties[p] {
					t.Fatalf("%s: entrant %d moved to %d: wins %d→%d ties %d→%d",
						name, p, i, a.Wins[p], b.Wins[i], a.Ties[p], b.Ties[i])
				}
			}
		}
		for _, cmp := range []Comparator{CovBetter(), SprBetter(), HvLogBetter(), RankBetter{Dmax: field[0]}} {
			a, err := Tournament(field, cmp)
			if err != nil {
				t.Fatal(err)
			}
			b, err := Tournament(shuffled, cmp)
			if err != nil {
				t.Fatal(err)
			}
			check(cmp.Name(), a, b)
		}
		a, err := TournamentSets(sets, w)
		if err != nil {
			t.Fatal(err)
		}
		b, err := TournamentSets(shuffledSets, w)
		if err != nil {
			t.Fatal(err)
		}
		check("WTD", a, b)
	}
}

// Every entrant is validated before a pair is played, whatever the
// comparator.
func TestTournamentRejectsInvalidEntrant(t *testing.T) {
	good := PropertyVector{1, 2, 3}
	for _, bad := range []PropertyVector{{}, {1, 2}, {1, math.NaN(), 3}, {math.Inf(1), 2, 3}, {1, 2, math.Inf(-1)}} {
		for _, cmp := range []Comparator{CovBetter(), SprBetter(), MinBetter()} {
			_, err := Tournament([]PropertyVector{good, good, bad}, cmp)
			if err == nil || !strings.HasPrefix(err.Error(), "core: tournament entrant 2: ") {
				t.Errorf("%s on %v: err = %v", cmp.Name(), bad, err)
			}
		}
		w, _ := NewWTD([]float64{0.5, 0.5}, []BinaryIndex{PCov, PCov})
		_, err := TournamentSets([]PropertySet{{good, good}, {good, bad}}, w)
		if err == nil || !strings.HasPrefix(err.Error(), "core: tournament entrant 1: ") {
			t.Errorf("WTD on %v: err = %v", bad, err)
		}
	}
	w, _ := NewWTD([]float64{0.5, 0.5}, []BinaryIndex{PCov, PCov})
	for _, bad := range []PropertySet{{good}, {{1, 2}, {1, 2}}} {
		_, err := TournamentSets([]PropertySet{{good, good}, bad}, w)
		if err == nil || !strings.HasPrefix(err.Error(), "core: tournament entrant 1: ") {
			t.Errorf("WTD on %v: err = %v", bad, err)
		}
	}
}
