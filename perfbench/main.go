// Command perfbench is the repository's end-to-end benchmark of the
// comparison pipeline: CSV ingest, anonymization by the disclosure-control
// algorithms, per-tuple property vectors and measures, attack risk, the ▶
// comparator tournaments and a sealed result pack.
//
// One run generates a seeded census draw, encodes it as CSV bytes (the only
// input the library receives), and runs one workload as a closed loop with
// a single client: one job at a time, back to back, for --seconds. Every
// job checks its outputs. The last line of standard output is one JSON
// object with the run's verdict and metrics:
//
//	bash perfbench/run.sh --workload compare-10k --seed 1 --seconds 35 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones. With --trace 1 the run
// alternates untraced and traced jobs; each layer call of a traced job is
// wrapped in a span opened by this package through internal/telemetry, and
// the metrics are the per-layer busy and self times and the counts read
// from the layers' return values.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"microdata/internal/kernels"
	"microdata/internal/telemetry"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are one run's settings, parsed from the command line.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	n        int
	workers  int
	traceDir string
}

func parseOptions(args []string, stderr io.Writer) (*options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	o := &options{}
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&o.seed, "seed", defaultSeed, "seed of the census draw")
	fs.Float64Var(&o.seconds, "seconds", 10, "how long to keep starting jobs")
	trace := fs.Int("trace", 0, "1: alternate untraced and traced jobs and report per-layer metrics")
	fs.IntVar(&o.n, "n", 0, "rows in the census draw (0: the workload's own size)")
	fs.IntVar(&o.workers, "workers", 0, "worker cap for GOMAXPROCS and the parallel kernels (0 or above nproc: nproc)")
	fs.StringVar(&o.traceDir, "trace-dir", "", "directory the traced run writes its Chrome trace to (empty: none)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if *trace != 0 && *trace != 1 {
		return nil, fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}
	o.trace = *trace == 1
	if o.seconds <= 0 {
		return nil, fmt.Errorf("--seconds must be positive, got %v", o.seconds)
	}
	if o.n < 0 {
		return nil, fmt.Errorf("--n must not be negative, got %d", o.n)
	}
	return o, nil
}

func run(args []string, stdout, stderr io.Writer) int {
	o, err := parseOptions(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	expected, err := loadExpected()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	return runOptions(o, expected, stdout, stderr)
}

// runOptions runs the benchmark, checking outputs against the expected
// digests, and returns the exit code.
func runOptions(o *options, expected map[string]string, stdout, stderr io.Writer) int {
	res, err := execute(o, expected, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		if res == nil {
			return 1
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the run's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// jobRun is what one job left behind.
type jobRun struct {
	traced   bool
	wall     time.Duration
	cpu      time.Duration
	faults   int64 // minor page faults
	alloc    uint64
	gcPause  time.Duration
	gcCycles uint32
	peakRSS  float64 // bytes
	rec      *recorder
	spans    []*telemetry.Span // every span of a traced job, the program's too
	root     *telemetry.Span
	err      error
}

// execute sets up the workload, runs its jobs and gathers the metrics. A
// non-nil result with a non-nil error is a run whose outputs failed
// verification; a nil result is a run that could not start.
func execute(o *options, expected map[string]string, stdout io.Writer) (*result, error) {
	w, ok := workloadByName(o.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (known: %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	procs := runtime.NumCPU()
	if o.workers > 0 && o.workers < procs {
		procs = o.workers
	}
	runtime.GOMAXPROCS(procs)
	kernels.SetDefaultWorkers(procs)
	p := params{n: w.n, seed: o.seed, workers: procs}
	if o.n > 0 {
		p.n = o.n
	}

	// Set up several times and keep the last input: setup_s is a median.
	var setups []float64
	var in *input
	for len(setups) < 3 || (sum(setups) < 1 && len(setups) < 15) {
		t0 := time.Now()
		var err error
		if in, err = w.setup(p); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	coll := telemetry.NewCollector()
	var jobs []*jobRun
	deadline := time.Duration(o.seconds * float64(time.Second))
	start := time.Now()
	for {
		untraced, traced := countJobs(jobs)
		// Start another job only if it should end within --seconds, going
		// by the last job's wall time, so that a run of long jobs does not
		// overshoot by a whole job.
		more := len(jobs) == 0 || time.Since(start)+jobs[len(jobs)-1].wall <= deadline
		if o.trace {
			more = more || untraced == 0 || traced == 0
		}
		if !more {
			break
		}
		// The traced run alternates, beginning untraced, so both halves
		// see the same warm-up.
		j := runJob(w, p, in, o.trace && untraced > traced, coll)
		jobs = append(jobs, j)
		if j.err != nil {
			break
		}
	}

	res, verr := summarize(o, expected, w, p, setups, jobs, stdout)
	if o.trace && o.traceDir != "" {
		path := filepath.Join(o.traceDir, fmt.Sprintf("perfbench-%s-seed%d.trace.json", w.name, o.seed))
		if err := writeTrace(coll, path); err != nil {
			return nil, err
		}
		fmt.Fprintf(stdout, "spans written to %s\n", path)
	}
	return res, verr
}

func countJobs(jobs []*jobRun) (untraced, traced int) {
	for _, j := range jobs {
		if j.traced {
			traced++
		} else {
			untraced++
		}
	}
	return untraced, traced
}

func writeTrace(coll *telemetry.Collector, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := coll.Tracer.WriteChromeTrace(f); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}

// runJob runs one job from a collected heap, measuring its wall time, CPU
// time, allocation, garbage collection and peak resident set. run.sh has
// the runtime release freed pages with MADV_FREE, so the heap's pages stay
// mapped between jobs and a job does not pay for faulting in memory the
// previous one already used.
func runJob(w *workload, p params, in *input, traced bool, coll *telemetry.Collector) *jobRun {
	runtime.GC()
	resetPeakRSS()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0, faults0 := usage()

	j := &jobRun{traced: traced, rec: newRecorder()}
	ctx := context.Background()
	if traced {
		telemetry.SetCollector(coll)
		ctx, j.root = telemetry.Start(ctx, "job", telemetry.String("workload", w.name))
	}
	t0 := time.Now()
	j.err = w.job(ctx, j.rec, p, in)
	j.wall = time.Since(t0)
	if traced {
		j.root.End()
		telemetry.SetCollector(nil)
		for _, s := range coll.Tracer.Finished() {
			if s.ID >= j.root.ID {
				j.spans = append(j.spans, s)
			}
		}
	}

	cpu1, faults1 := usage()
	j.cpu, j.faults = cpu1-cpu0, faults1-faults0
	runtime.ReadMemStats(&ms1)
	j.alloc = ms1.TotalAlloc - ms0.TotalAlloc
	j.gcPause = time.Duration(ms1.PauseTotalNs - ms0.PauseTotalNs)
	j.gcCycles = ms1.NumGC - ms0.NumGC
	j.peakRSS = peakRSS()
	return j
}

// usage is the process's user plus system CPU time and its count of minor
// page faults.
func usage() (time.Duration, int64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), ru.Minflt
}

// resetPeakRSS restarts the kernel's peak-RSS mark (VmHWM) from the
// current resident set, so that peakRSS reads the peak of what follows.
// Where /proc/self/clear_refs is missing, peakRSS reads the process's peak.
func resetPeakRSS() {
	f, err := os.OpenFile("/proc/self/clear_refs", os.O_WRONLY, 0)
	if err != nil {
		return
	}
	_, _ = f.Write([]byte("5")) // best effort: see above
	f.Close()
}

// peakRSS is the peak resident set size in bytes since resetPeakRSS.
func peakRSS() float64 {
	if raw, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				if kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64); err == nil {
					return kb * 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 // Linux reports kilobytes
}

// summarize verifies every job's outputs and turns the jobs into the
// run's metrics, printing a readable report before the JSON line.
func summarize(o *options, expected map[string]string, w *workload, p params, setups []float64, jobs []*jobRun, stdout io.Writer) (*result, error) {
	res := &result{Correct: true, Metrics: map[string]metric{}}
	var problems []string
	want, pinned := expected[expectKey(w.name, p.n, p.seed)]
	var first string
	for i, j := range jobs {
		fmt.Fprintf(stdout, "job %d: wall %.3fs cpu %.3fs alloc %.0fMB faults %d traced=%v\n",
			i+1, j.wall.Seconds(), j.cpu.Seconds(), float64(j.alloc)/1e6, j.faults, j.traced)
		res.Attempted += j.rec.attempted + 1 // the layer calls plus the digest check
		res.Failed += j.rec.failed
		problems = append(problems, j.rec.problems...)
		if j.err != nil {
			problems = append(problems, fmt.Sprintf("job %d: %v", i+1, j.err))
			continue
		}
		got := j.rec.sum()
		if i == 0 {
			first = got
		}
		mismatch := ""
		switch {
		case got != first:
			mismatch = fmt.Sprintf("job %d: output digest %s differs from job 1's %s", i+1, got, first)
		case pinned && got != want:
			mismatch = fmt.Sprintf("job %d: output digest %s, expected %s for %s",
				i+1, got, want, expectKey(w.name, p.n, p.seed))
		}
		if mismatch != "" {
			res.Failed++
			problems = append(problems, mismatch)
			for _, line := range j.rec.lines {
				fmt.Fprintf(stdout, "job %d digested: %s\n", i+1, line)
			}
		}
	}
	if res.Failed > res.Attempted {
		res.Failed = res.Attempted
	}
	res.Correct = res.Failed == 0 && len(problems) == 0

	check := "invariants"
	if pinned {
		check = "invariants and pinned digest"
	}
	fmt.Fprintf(stdout, "workload %s: N=%d seed=%d workers=%d, %d jobs (%s checked)\n",
		w.name, p.n, p.seed, p.workers, len(jobs), check)
	if first != "" {
		fmt.Fprintf(stdout, "output digest %s\n", first)
	}
	fmt.Fprintf(stdout, "failed_ratio %v (%d failed of %d attempted)\n",
		float64(res.Failed)/float64(max(res.Attempted, 1)), res.Failed, res.Attempted)
	var rss []float64
	for _, j := range jobs {
		rss = append(rss, j.peakRSS/1e6)
	}
	fmt.Fprintf(stdout, "peak_rss_mb %.1f MB (median of the jobs' peaks)\n", median(rss))
	for _, pr := range problems {
		fmt.Fprintln(stdout, "FAILED:", pr)
	}

	if o.trace {
		layerMetrics(res.Metrics, jobs, stdout)
	} else {
		endToEndMetrics(res.Metrics, setups, jobs)
	}
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Fprintf(stdout, "  %-40s %14.6g %s\n", name, m.Value, m.Unit)
	}
	if res.Attempted == 0 {
		res.Attempted = 1
		res.Failed = 1
		res.Correct = false
	}
	if !res.Correct {
		return res, errors.New(strings.Join(append([]string{"output verification failed"}, problems...), "\n  "))
	}
	return res, nil
}

// endToEndMetrics are what a user of the pipeline sees: medians over the
// untraced jobs.
func endToEndMetrics(m map[string]metric, setups []float64, jobs []*jobRun) {
	var wall, cpu, alloc []float64
	for _, j := range jobs {
		if j.traced || j.err != nil {
			continue
		}
		wall = append(wall, j.wall.Seconds())
		cpu = append(cpu, j.cpu.Seconds())
		alloc = append(alloc, float64(j.alloc)/1e6)
	}
	m["setup_s"] = metric{median(setups), "s"}
	m["job_s"] = metric{median(wall), "s"}
	m["cpu_s"] = metric{median(cpu), "s"}
	m["alloc_mb"] = metric{median(alloc), "MB"}
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
