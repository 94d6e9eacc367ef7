package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"

	"microdata/internal/algorithm"
	"microdata/internal/algorithm/bottomup"
	"microdata/internal/algorithm/datafly"
	"microdata/internal/algorithm/genetic"
	"microdata/internal/algorithm/incognito"
	"microdata/internal/algorithm/mondrian"
	"microdata/internal/algorithm/muargus"
	"microdata/internal/algorithm/ola"
	"microdata/internal/algorithm/optimal"
	"microdata/internal/algorithm/samarati"
	"microdata/internal/algorithm/topdown"
	"microdata/internal/attack"
	"microdata/internal/core"
	"microdata/internal/dataset"
	"microdata/internal/eqclass"
	"microdata/internal/generator"
	"microdata/internal/hierarchy"
	"microdata/internal/lattice"
	"microdata/internal/measure"
	"microdata/internal/telemetry/perf"
	"microdata/internal/telemetry/resultpack"
	"microdata/internal/utility"
)

// params fix one run's census draw and parallelism.
type params struct {
	n       int
	seed    int64
	workers int
}

// input is what setup hands every job: CSV bytes only.
type input struct {
	csv []byte
	// population is the journalist adversary's population (the sample
	// plus a second draw of the same size at seed+1), for compare-10k.
	population []byte
}

// workload is one named job the benchmark repeats.
type workload struct {
	name  string
	n     int
	setup func(params) (*input, error)
	job   func(context.Context, *recorder, params, *input) error
}

var workloads = []*workload{
	{name: "compare-10k", n: 10_000, setup: censusWithPopulation, job: compareJob},
	{name: "rank-lattice-5k", n: 5_000, setup: censusCSV, job: rankLatticeJob},
	{name: "release-1m", n: 1_000_000, setup: censusCSV, job: releaseJob},
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func workloadByName(name string) (*workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

func encodeCSV(t *dataset.Table) ([]byte, error) {
	var buf bytes.Buffer
	if err := dataset.WriteCSV(&buf, t); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// censusCSV draws the seeded census and encodes it as CSV.
func censusCSV(p params) (*input, error) {
	tab, err := generator.Generate(generator.Config{N: p.n, Seed: p.seed})
	if err != nil {
		return nil, err
	}
	raw, err := encodeCSV(tab)
	if err != nil {
		return nil, err
	}
	return &input{csv: raw}, nil
}

// censusWithPopulation adds the journalist population: the sample's rows
// followed by a second draw of N rows at seed+1.
func censusWithPopulation(p params) (*input, error) {
	in, err := censusCSV(p)
	if err != nil {
		return nil, err
	}
	extra, err := generator.Generate(generator.Config{N: p.n, Seed: p.seed + 1})
	if err != nil {
		return nil, err
	}
	raw, err := encodeCSV(extra)
	if err != nil {
		return nil, err
	}
	body := raw[bytes.IndexByte(raw, '\n')+1:] // drop the second header
	in.population = append(append([]byte(nil), in.csv...), body...)
	return in, nil
}

// config is the k-anonymity policy every workload uses: the census
// hierarchies, the 5% suppression budget and the LM metric.
func config(k int, p params) algorithm.Config {
	return algorithm.Config{
		K:              k,
		Hierarchies:    generator.Hierarchies(),
		Taxonomies:     generator.Taxonomies(),
		MaxSuppression: 0.05,
		Metric:         algorithm.MetricLM,
		Seed:           p.seed,
		Workers:        p.workers,
	}
}

func ingest(ctx context.Context, r *recorder, raw []byte) (*dataset.Table, error) {
	var tab *dataset.Table
	err := r.call(ctx, "dataset.ingest", func(context.Context) error {
		var err error
		tab, err = dataset.IngestCSVTable(bytes.NewReader(raw), generator.Schema())
		return err
	})
	r.add("dataset.ingest.bytes", float64(len(raw)))
	return tab, err
}

// anonymize runs one algorithm and checks its release: k-anonymous with
// the suppressed tuples' all-star class exempt, and within the
// suppression budget. It records the engine and Mondrian counters the
// result carries.
func anonymize(ctx context.Context, r *recorder, alg algorithm.Algorithm, tab *dataset.Table, cfg algorithm.Config) (*algorithm.Result, error) {
	var res *algorithm.Result
	err := r.call(ctx, "algorithm."+alg.Name(), func(ctx context.Context) error {
		var err error
		res, err = algorithm.AnonymizeContext(ctx, alg, tab, cfg)
		return err
	})
	if err != nil {
		return nil, err
	}
	// μ-Argus checks only bivariate combinations and, as documented, does
	// not guarantee k-anonymity.
	r.check(alg.Name() == "mu-argus" || algorithm.SatisfiesK(res.Partition, res.Table, cfg.K),
		"%s at k=%d: release is not k-anonymous", alg.Name(), cfg.K)
	r.check(len(res.Suppressed) <= cfg.Budget(tab.Len()),
		"%s at k=%d: %d suppressed, budget %d", alg.Name(), cfg.K, len(res.Suppressed), cfg.Budget(tab.Len()))
	if nodes, ok := res.Stats["engine_nodes_evaluated"]; ok {
		r.add("engine.nodes_evaluated", nodes)
		r.add("engine.rows_scanned", res.Stats["engine_rows_scanned"])
		r.add("engine.cache_hits", res.Stats["engine_cache_hits"])
		r.add("engine.cache_lookups", res.Stats["engine_cache_hits"]+res.Stats["engine_cache_misses"])
		r.add("engine.busy_s", r.last.Seconds())
	}
	r.add("mondrian.cuts", res.Stats["cuts"])
	r.note("k=%d %s node=%v classes=%d suppressed=%d cuts=%v",
		cfg.K, alg.Name(), res.Levels, res.Partition.NumClasses(), len(res.Suppressed), res.Stats["cuts"])
	return res, nil
}

// roster is the full algorithm roster of the paper's comparison (E14),
// run one after another.
func roster() []algorithm.Algorithm {
	return []algorithm.Algorithm{
		bottomup.New(), datafly.New(), samarati.New(), incognito.New(), optimal.New(),
		mondrian.New(), mondrian.NewRelaxed(), muargus.New(), ola.New(), genetic.New(), topdown.New(),
	}
}

// properties are the six per-tuple property vectors compare-10k measures;
// class size comes first and retained information last.
func properties() []measure.Property {
	return []measure.Property{
		measure.ClassSize(), measure.SensitiveCount(), measure.DistinctSensitive(),
		measure.BreachSafety(), measure.TClosenessSafety(), measure.RetainedInformation(),
	}
}

// compareJob is the paper's comparison at one policy: every roster
// algorithm's release is measured in depth, attacked, and ranked.
func compareJob(ctx context.Context, r *recorder, p params, in *input) error {
	tab, err := ingest(ctx, r, in.csv)
	if err != nil {
		return err
	}
	population, err := ingest(ctx, r, in.population)
	if err != nil {
		return err
	}
	cfg := config(5, p)
	pack := &resultpack.Pack{
		Schema: resultpack.Schema, Version: resultpack.Version, Source: resultpack.SourceCensus,
		Env: perf.Env{Seed: p.seed, N: p.n, K: cfg.K}, Ks: []int{cfg.K},
	}
	var sets []core.PropertySet
	var names []string
	for _, alg := range roster() {
		res, err := anonymize(ctx, r, alg, tab, cfg)
		if err != nil {
			return err
		}
		set, sum, err := measureRelease(ctx, r, tab, res)
		if err != nil {
			return err
		}
		risk, err := attackRelease(ctx, r, tab, population, res, alg.Name() == "mondrian", p)
		if err != nil {
			return err
		}
		risk.K = cfg.K
		sets = append(sets, set)
		names = append(names, alg.Name())
		row := resultpack.AlgorithmResult{
			Algorithm: alg.Name(), K: cfg.K, KActual: sum.KAnonymity, Classes: sum.Classes,
			Suppressed: len(res.Suppressed),
			Measures: map[string]resultpack.Float{
				"lm": round(sum.LossMetric), "dm": round(sum.Discernibility),
				"distinct_l": round(float64(sum.DistinctL)), "entropy_l": round(sum.EntropyL),
				"t_close": round(sum.TCloseness), "gini": round(sum.ClassSizeGini),
			},
		}
		if res.Levels != nil {
			row.Node = res.Levels.String()
		}
		pack.Algorithms = append(pack.Algorithms, row)
		pack.Attack = append(pack.Attack, risk)
	}
	if err := tournaments(ctx, r, names, sets, p.n); err != nil {
		return err
	}
	var sealed bytes.Buffer
	err = r.call(ctx, "resultpack.seal", func(context.Context) error {
		if err := pack.Seal(); err != nil {
			return err
		}
		return pack.WriteCanonical(&sealed)
	})
	if err != nil {
		return err
	}
	_, err = resultpack.Read(sealed.Bytes())
	r.check(err == nil, "sealed result pack does not verify: %v", err)
	r.add("resultpack.bytes", float64(sealed.Len()))
	r.note("resultpack %s", pack.Manifest.Digest)
	return nil
}

// measureRelease builds the release's measurement context, its six
// property vectors and its scalar summary, and returns the class-size and
// retained-information vectors the tournaments rank.
func measureRelease(ctx context.Context, r *recorder, tab *dataset.Table, res *algorithm.Result) (core.PropertySet, *measure.Summary, error) {
	var mc *measure.Context
	err := r.call(ctx, "measure.context", func(context.Context) error {
		var err error
		mc, err = measure.NewContext(tab, res.Table, generator.Taxonomies())
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	r.add("measure.classes", float64(mc.Partition.NumClasses()))
	// Regrouping by released values can only merge the algorithm's
	// classes (two Mondrian regions may generalize alike).
	r.check(mc.Partition.NumClasses() <= res.Partition.NumClasses(),
		"%s: measured %d classes, the release has %d", res.Algorithm, mc.Partition.NumClasses(), res.Partition.NumClasses())
	var set core.PropertySet
	err = r.call(ctx, "measure.vectors", func(context.Context) error {
		var err error
		set, err = measure.Measure(mc, properties()...)
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	var sum *measure.Summary
	err = r.call(ctx, "measure.summary", func(context.Context) error {
		var err error
		sum, err = measure.Summarize(mc)
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	for i, prop := range properties() {
		r.check(len(set[i]) == tab.Len(), "%s: %s vector has %d entries, want %d", res.Algorithm, prop.Name, len(set[i]), tab.Len())
		r.note("%s %s %s", res.Algorithm, prop.Name, vecHash(set[i]))
	}
	r.note("%s summary rows=%d classes=%d k=%d distinct_l=%d entropy_l=%v t=%v lm=%v dm=%v gini=%v sizes=%v/%v/%v",
		res.Algorithm, sum.Rows, sum.Classes, sum.KAnonymity, sum.DistinctL, round(sum.EntropyL), round(sum.TCloseness),
		round(sum.LossMetric), round(sum.Discernibility), round(sum.ClassSizeGini),
		sum.ClassSizeMin, sum.ClassSizeMedian, sum.ClassSizeMax)
	return core.PropertySet{set[0], set[len(set)-1]}, sum, nil
}

// attackRelease measures the prosecutor risk of a release and, for the
// Mondrian release, the journalist risk against the population.
func attackRelease(ctx context.Context, r *recorder, tab, population *dataset.Table, res *algorithm.Result, journalist bool, p params) (resultpack.AttackRisk, error) {
	risk := resultpack.AttackRisk{Algorithm: res.Algorithm}
	var adv *attack.Adversary
	var pros core.PropertyVector
	err := r.call(ctx, "attack.prosecutor", func(ctx context.Context) error {
		var err error
		if adv, err = attack.NewAdversary(res.Table, generator.Taxonomies()); err != nil {
			return err
		}
		adv.SetWorkers(p.workers)
		pros, err = attack.ProsecutorVectorContext(ctx, tab, adv)
		return err
	})
	if err != nil {
		return risk, err
	}
	risk.Prosecutor = riskOf(pros)
	r.note("%s prosecutor %s", res.Algorithm, vecHash(pros))
	if journalist {
		var jour core.PropertyVector
		err := r.call(ctx, "attack.journalist", func(ctx context.Context) error {
			var err error
			jour, err = attack.JournalistVectorContext(ctx, tab, population, adv)
			return err
		})
		if err != nil {
			return risk, err
		}
		risk.Journalist = riskOf(jour)
		r.note("%s journalist %s", res.Algorithm, vecHash(jour))
	}
	st := adv.Stats()
	r.add("attack.regions", float64(st.Regions))
	r.add("attack.regions_probed", float64(st.RegionsProbed))
	r.add("attack.victim_hits", float64(st.CacheHits))
	r.add("attack.victim_lookups", float64(st.CacheHits+st.CacheMisses))
	return risk, nil
}

func riskOf(v []float64) *resultpack.RiskSummary {
	hi, total := v[0], 0.0
	for _, x := range v {
		hi, total = max(hi, x), total+x
	}
	return &resultpack.RiskSummary{Mean: round(total / float64(len(v))), Median: round(median(v)), Max: round(hi)}
}

// round keeps 12 significant digits. Some scalar measures sum over Go map
// iteration order and so vary in their last bits from run to run; the
// digest and the sealed pack record them at a precision that does not.
func round(x float64) resultpack.Float {
	v, _ := strconv.ParseFloat(strconv.FormatFloat(x, 'g', 12, 64), 64)
	return resultpack.Float(v)
}

// tournaments ranks the entrants' two-property sets (class size, retained
// information) with the ▶cov/spr/rank/hv-log comparators over class size,
// ▶cov over retained information and WTD over both.
func tournaments(ctx context.Context, r *recorder, names []string, sets []core.PropertySet, n int) error {
	sizes := make([]core.PropertyVector, len(sets))
	retained := make([]core.PropertyVector, len(sets))
	for i, s := range sets {
		sizes[i], retained[i] = s[0], s[1]
	}
	dmax := make(core.PropertyVector, n)
	for i := range dmax {
		dmax[i] = float64(n)
	}
	wtd, err := core.NewWTD([]float64{0.5, 0.5}, []core.BinaryIndex{core.PCov, core.PCov})
	if err != nil {
		return err
	}
	single := []struct {
		name string
		cmp  core.Comparator
		vecs []core.PropertyVector
	}{
		{"cov", core.CovBetter(), sizes},
		{"spr", core.SprBetter(), sizes},
		{"rank", core.RankBetter{Dmax: dmax}, sizes},
		{"hv-log", core.HvLogBetter(), sizes},
		{"cov-utility", core.CovBetter(), retained},
	}
	pairs := len(sets) * (len(sets) - 1) / 2
	record := func(name string, t *core.TournamentResult) {
		wins, ties := 0, 0
		for i := range t.Wins {
			wins += t.Wins[i]
			ties += t.Ties[i]
		}
		r.check(wins+ties/2 == pairs && ties%2 == 0,
			"tournament %s: %d wins and %d ties over %d pairs", name, wins, ties, pairs)
		r.add("core.comparisons", float64(pairs))
		r.add("core.elements", float64(pairs)*float64(n))
		order := make([]string, len(t.Order))
		for i, e := range t.Order {
			order[i] = fmt.Sprintf("%s:%d", names[e], t.Wins[e])
		}
		r.note("tournament %s %v", name, order)
	}
	for _, c := range single {
		var t *core.TournamentResult
		err := r.call(ctx, "core.tournament."+c.name, func(context.Context) error {
			var err error
			t, err = core.Tournament(c.vecs, c.cmp)
			return err
		})
		if err != nil {
			return err
		}
		record(c.name, t)
	}
	var t *core.TournamentResult
	err = r.call(ctx, "core.tournament.wtd", func(context.Context) error {
		var err error
		t, err = core.TournamentSets(sets, wtd)
		return err
	})
	if err != nil {
		return err
	}
	record("wtd", t)
	return nil
}

// rankLatticeJob materializes every full-domain lattice node that
// FinishGlobal accepts, gives each release its class-size and
// retained-information vectors, and ranks them all with the six
// comparators.
func rankLatticeJob(ctx context.Context, r *recorder, p params, in *input) error {
	tab, err := ingest(ctx, r, in.csv)
	if err != nil {
		return err
	}
	cfg := config(5, p)
	maxLevels, err := cfg.Hierarchies.MaxLevels(tab.Schema)
	if err != nil {
		return err
	}
	lat, err := lattice.New(maxLevels)
	if err != nil {
		return err
	}
	var names []string
	var sets []core.PropertySet
	for _, node := range lat.Nodes() {
		var res *algorithm.Result
		// A node FinishGlobal rejects (over the suppression budget) is an
		// outcome, not a failed call.
		_ = r.call(ctx, "algorithm.finish_global", func(ctx context.Context) error {
			res, _ = algorithm.FinishGlobalContext(ctx, "lattice", tab, cfg, node, nil)
			return nil
		})
		r.add("algorithm.finish_global.calls", 1)
		if res == nil {
			r.note("node %v rejected", node)
			continue
		}
		r.add("algorithm.finish_global.accepted", 1)
		r.check(algorithm.SatisfiesK(res.Partition, res.Table, cfg.K), "node %v: release is not k-anonymous", node)
		r.check(len(res.Suppressed) <= cfg.Budget(tab.Len()), "node %v: %d suppressed, budget %d",
			node, len(res.Suppressed), cfg.Budget(tab.Len()))
		var mc *measure.Context
		err := r.call(ctx, "measure.context", func(context.Context) error {
			var err error
			mc, err = measure.NewContext(tab, res.Table, cfg.Taxonomies)
			return err
		})
		if err != nil {
			return err
		}
		r.add("measure.classes", float64(mc.Partition.NumClasses()))
		var set core.PropertySet
		err = r.call(ctx, "measure.vectors", func(context.Context) error {
			var err error
			set, err = measure.Measure(mc, measure.ClassSize(), measure.RetainedInformation())
			return err
		})
		if err != nil {
			return err
		}
		r.note("node %v classes=%d suppressed=%d sizes=%s retained=%s", node, res.Partition.NumClasses(),
			len(res.Suppressed), vecHash(set[0]), vecHash(set[1]))
		names = append(names, node.String())
		sets = append(sets, set)
	}
	r.check(len(sets) >= 2, "only %d lattice nodes accepted", len(sets))
	if len(sets) < 2 {
		return nil
	}
	return tournaments(ctx, r, names, sets, tab.Len())
}

// releaseNode is the fixed policy node of release-1m (the perfsuite
// group-by node).
var releaseNode = lattice.Node{2, 2, 1, 1}

// releaseJob is a custodian's release at a fixed policy node: generalize,
// group, suppress the violating classes, score LM and write the CSV.
func releaseJob(ctx context.Context, r *recorder, p params, in *input) error {
	tab, err := ingest(ctx, r, in.csv)
	if err != nil {
		return err
	}
	cfg := config(5, p)
	var anon *dataset.Table
	err = r.call(ctx, "hierarchy.generalize", func(context.Context) error {
		var err error
		anon, err = hierarchy.GeneralizeTable(tab, cfg.Hierarchies, releaseNode)
		return err
	})
	if err != nil {
		return err
	}
	part, err := groupBy(ctx, r, anon)
	if err != nil {
		return err
	}
	var small []int
	err = r.call(ctx, "algorithm.violating", func(context.Context) error {
		bad, err := algorithm.ViolatingClasses(part, anon, cfg)
		if err != nil {
			return err
		}
		for ci, rows := range part.Classes {
			if bad[ci] {
				small = append(small, rows...)
			}
		}
		hierarchy.SuppressRows(anon, small)
		return nil
	})
	if err != nil {
		return err
	}
	r.check(len(small) <= cfg.Budget(tab.Len()), "%d suppressed, budget %d", len(small), cfg.Budget(tab.Len()))
	if len(small) > 0 {
		if part, err = groupBy(ctx, r, anon); err != nil {
			return err
		}
	}
	r.check(algorithm.SatisfiesK(part, anon, cfg.K), "release is not k-anonymous")
	var lm float64
	err = r.call(ctx, "utility.lm", func(context.Context) error {
		var err error
		lm, err = utility.GeneralLossMetric(anon, tab, utility.LossConfig{Taxonomies: cfg.Taxonomies})
		return err
	})
	if err != nil {
		return err
	}
	var out bytes.Buffer
	err = r.call(ctx, "dataset.write", func(context.Context) error {
		return dataset.WriteCSV(&out, anon)
	})
	if err != nil {
		return err
	}
	r.add("dataset.write.bytes", float64(out.Len()))
	sum := sha256.Sum256(out.Bytes())
	r.note("release node=%v classes=%d suppressed=%d lm=%x csv=%s", releaseNode, part.NumClasses(), len(small),
		lm, hex.EncodeToString(sum[:]))
	return nil
}

func groupBy(ctx context.Context, r *recorder, t *dataset.Table) (*eqclass.Partition, error) {
	var part *eqclass.Partition
	err := r.call(ctx, "eqclass.groupby", func(context.Context) error {
		var err error
		part, err = eqclass.FromTable(t)
		return err
	})
	if err != nil {
		return nil, err
	}
	r.add("eqclass.classes", float64(part.NumClasses()))
	return part, nil
}
