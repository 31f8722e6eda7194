// Command perfbench is the repository's benchmark. It runs one named
// workload over a seed-derived input, checks the program's outputs, and
// prints one JSON result line: end-to-end metrics untraced (--trace 0), or
// per-layer metrics from a traced run (--trace 1). See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

// workload is one named benchmark input.
type workload struct {
	name string
	// prepare builds and warms the workload's machines (set-up) and returns
	// its timed phase. A non-nil tracer records spans in both.
	prepare func(seed uint64, short bool, tr *tracer) (phase, error)
	// host derives the workload's own per-layer host timings from a traced
	// rep's spans.
	host func(r *rep, tr *tracer)
}

var workloads = []workload{
	{name: "paging", prepare: preparePaging, host: pagingHost},
	{name: "serve", prepare: prepareServe, host: serveHost},
	{name: "migrate", prepare: prepareMigrate, host: migrateHost},
	{name: "orderly", prepare: prepareOrderly, host: orderlyHost},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// config is one invocation.
type config struct {
	workload workload
	seed     uint64
	seconds  float64
	trace    bool
	short    bool   // small sizes, for the self-test
	spansDir string // where a traced run writes its spans ("" = nowhere)
}

// minReps is the fewest reps an untraced run makes, so set-up time is a
// median of several set-ups; a traced run makes at least one untraced and
// one traced rep.
const minReps = 5

// maxReps bounds a run on a fast host.
const maxReps = 1000

// outcome is what a run measured.
type outcome struct {
	untraced, traced []*rep
	spansPath        string
}

// run repeats the workload until the time budget is spent: every rep
// rebuilds the workload from the seed, so their simulated figures must be
// identical, and run checks that they are. A traced run alternates
// untraced and traced reps.
func run(cfg config) (*outcome, error) {
	if err := calMemory(); err != nil {
		return nil, fmt.Errorf("calibration memory: %w", err)
	}
	out := &outcome{}
	resetPeakRSS()
	start := time.Now()
	var first *rep
	var last *tracer // the latest traced rep's spans, written at the end
	for i := 0; i < maxReps; i++ {
		traced := cfg.trace && i%2 == 1
		var tr *tracer
		if traced {
			tr = newTracer()
		}
		r, err := measure(func() (phase, error) {
			return cfg.workload.prepare(cfg.seed, cfg.short, tr)
		}, tr)
		if err != nil {
			return nil, fmt.Errorf("%s rep %d: %w", cfg.workload.name, i, err)
		}
		// Record the rep's peak RSS, then return its memory to the OS, so
		// the next rep starts as a fresh process would (paying the same
		// page faults for its heap) with its own high-water mark.
		r.peakRSS = peakRSSMB()
		debug.FreeOSMemory()
		resetPeakRSS()
		fmt.Fprintf(os.Stderr, "%s rep %d traced=%v: host speed %.3f, set-up %.3fs, %d ops in %.3fs, %.0f ops/s, peak RSS %.1f MB\n",
			cfg.workload.name, i, traced, r.speed, r.setup.Seconds(), r.ops, r.elapsed.Seconds(), float64(r.ops)/r.elapsed.Seconds(), r.peakRSS)
		if first == nil {
			first = r
		} else if !reflect.DeepEqual(first.sim, r.sim) {
			return nil, fmt.Errorf("%s rep %d: simulated figures differ from rep 0 on the same seed:\n%s",
				cfg.workload.name, i, simDiff(first.sim, r.sim))
		}
		if traced {
			backendHost(r, tr)
			cfg.workload.host(r, tr)
			if err := sealFloor(r); err != nil {
				return nil, err
			}
			out.traced = append(out.traced, r)
			last = tr
		} else {
			out.untraced = append(out.untraced, r)
		}
		enough := len(out.untraced) >= minReps
		if cfg.trace {
			enough = len(out.traced) >= 1
		}
		if enough && time.Since(start).Seconds() >= cfg.seconds {
			break
		}
	}
	if last != nil && cfg.spansDir != "" {
		var err error
		if out.spansPath, err = last.write(cfg.spansDir, cfg.workload.name, cfg.seed); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
	}
	return out, nil
}

// simDiff lists the simulated figures that differ between two reps.
func simDiff(a, b map[string]float64) string {
	var lines []string
	for k, v := range a {
		if b[k] != v {
			lines = append(lines, fmt.Sprintf("  %s: %v vs %v", k, v, b[k]))
		}
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// benchmarkSpec is the part of BENCHMARK.json the benchmark reads: its
// workloads and its metric catalogue, every name with its unit.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"` // untraced runs (--trace 0)
	PerLayer []metricDef `json:"per_layer"`  // traced runs (--trace 1)
}

type metricDef struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// readSpec reads BENCHMARK.json from the repository root.
func readSpec() (benchmarkSpec, error) {
	var spec benchmarkSpec
	path, err := findRepoFile("BENCHMARK.json")
	if err != nil {
		return spec, err
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return spec, err
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		return spec, fmt.Errorf("%s: %w", path, err)
	}
	return spec, nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// medianOf returns the median of f over reps.
func medianOf(reps []*rep, f func(*rep) float64) float64 {
	xs := make([]float64, len(reps))
	for i, r := range reps {
		xs[i] = f(r)
	}
	return median(xs)
}

// opsPerSec is a rep's throughput per reference-host second.
func opsPerSec(r *rep) float64 { return float64(r.ops) / r.elapsed.Seconds() / r.speed }

// report turns a run's reps into the result line.
func report(cfg config, out *outcome) (result, error) {
	res := result{Correct: true, Metrics: map[string]metricValue{}}
	all := append(append([]*rep(nil), out.untraced...), out.traced...)
	for _, r := range all {
		res.Attempted += r.attempted
		res.Failed += r.failed
	}
	first := all[0]
	failedFrac := ratio(float64(first.failed), float64(first.attempted))
	values := map[string]float64{}
	if !cfg.trace {
		u := out.untraced
		values["setup_s"] = medianOf(u, func(r *rep) float64 { return r.setup.Seconds() * r.setupSpeed })
		values["ops_per_s"] = medianOf(u, opsPerSec)
		values["peak_rss_mb"] = medianOf(u, func(r *rep) float64 { return r.peakRSS })
		values["alloc_kb_per_op"] = medianOf(u, func(r *rep) float64 { return float64(r.allocBytes) / 1024 / float64(r.ops) })
		values["completed_frac"] = 1 - failedFrac
	} else {
		for k, v := range first.sim {
			values[k] = v
		}
		for k := range out.traced[0].host {
			values[k] = medianOf(out.traced, func(r *rep) float64 { return r.host[k] })
		}
		u := out.untraced
		values["failed_frac"] = failedFrac
		values["gc.retained_kb_per_op"] = medianOf(u, func(r *rep) float64 { return float64(r.retainedBytes) / 1024 / float64(r.ops) })
		values["gc.cpu_frac"] = medianOf(u, func(r *rep) float64 { return r.gcCPU / r.elapsed.Seconds() })
		plain, traced := medianOf(u, opsPerSec), medianOf(out.traced, opsPerSec)
		values["trace.ops_per_s_untraced"] = plain
		values["trace.ops_per_s_traced"] = traced
		values["trace.overhead_frac"] = 1 - traced/plain
		values["host.speed"] = medianOf(all, func(r *rep) float64 { return r.speed })
	}
	spec, err := readSpec()
	if err != nil {
		return res, err
	}
	// Every metric of the catalogue is printed; a per-layer metric that the
	// workload's layers do not exercise reads 0.
	defs := spec.EndToEnd
	if cfg.trace {
		defs = spec.PerLayer
	}
	known := map[string]bool{}
	for _, d := range defs {
		known[d.Name] = true
		res.Metrics[d.Name] = metricValue{Value: values[d.Name], Unit: d.Unit}
	}
	for k := range values {
		if !known[k] {
			return res, fmt.Errorf("metric %q is not in the catalogue", k)
		}
	}
	return res, nil
}

// stopTheWorldGC is the GODEBUG setting the benchmark runs under: every
// collection stops the world instead of marking concurrently. On one P a
// concurrent mark buys no parallelism, only interleaving with the
// workload, and when the host delays the mark worker the workload keeps
// allocating: on orderly, which collects thousands of times a second over
// a live heap of about 1 MB, one late mark in thousands grew the heap by
// tens of MB, at random, and peak_rss_mb with it.
const stopTheWorldGC = "gcstoptheworld=1"

// reexecWithSTWGC replaces the process with itself run under
// stopTheWorldGC, unless it already runs under it. The runtime reads
// GODEBUG only at start-up.
func reexecWithSTWGC() error {
	godebug := os.Getenv("GODEBUG")
	if strings.Contains(godebug, stopTheWorldGC) {
		return nil
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	if godebug != "" {
		godebug += ","
	}
	env := []string{"GODEBUG=" + godebug + stopTheWorldGC}
	for _, kv := range os.Environ() {
		if !strings.HasPrefix(kv, "GODEBUG=") {
			env = append(env, kv)
		}
	}
	return syscall.Exec(exe, os.Args, env)
}

func main() {
	if err := reexecWithSTWGC(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	name := flag.String("workload", "", "workload: paging, serve, migrate or orderly")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "time budget: reps repeat until it is spent")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	spans := flag.String("spans-dir", ".bench_build/spans", "directory for the span file of a traced run")
	flag.Parse()
	// The simulator is single-threaded and hands control between its
	// goroutines synchronously; one P keeps those handoffs on one thread,
	// so timings do not depend on cross-core wakeups.
	runtime.GOMAXPROCS(1)

	w, ok := findWorkload(*name)
	if !ok || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q or --trace %d\n", *name, *trace)
		os.Exit(2)
	}
	cfg := config{workload: w, seed: *seed, seconds: *seconds, trace: *trace == 1, spansDir: *spans}
	out, err := run(cfg)
	var res result
	if err == nil {
		res, err = report(cfg, out)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		line, _ := json.Marshal(result{Metrics: map[string]metricValue{}})
		fmt.Println(string(line))
		os.Exit(1)
	}
	if out.spansPath != "" {
		fmt.Printf("spans: %s\n", out.spansPath)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
