// Command benchmark is the repository's end-to-end benchmark: one
// workload and one seed per run, every end-to-end metric on stdout by
// name and unit, correctness checked along the way, and with -trace 1 the
// per-layer metrics of a traced run instead. See README.md for the
// workloads, the metrics and what each layer metric predicts.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd and perLayer are the metric tables BENCHMARK.json declares (a
// test keeps them in step). Every run prints every entry of its table,
// whatever the workload; a layer a workload does not reach reads 0.
var endToEnd = []metricDef{
	{"setup_s", "s"}, {"ops_s", "ops/s"}, {"pm_mops", "Mops/s"},
	{"space_amp", "ratio"}, {"dram_mib", "MiB"}, {"recover_s", "s"},
	{"p50_us", "us"},
}

type metricDef struct{ name, unit string }

// report accumulates one run's metrics and its correctness record.
type report struct {
	vals      map[string]float64
	notes     []string
	attempted int64
	failed    int64
	errs      []string
}

func newReport() *report { return &report{vals: make(map[string]float64)} }

func (r *report) set(name string, v float64) { r.vals[name] = v }

// setPct records a percentile and notes its sample count; one without
// minTail samples beyond it is noted and left at 0.
func (r *report) setPct(name string, p pct) {
	if p.OK {
		r.vals[name] = p.Value
		r.note("%s = %.3f (n=%d)", name, p.Value, p.N)
		return
	}
	r.note("%s not reported: n=%d leaves fewer than %d samples beyond it", name, p.N, minTail)
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// check counts one correctness check and records it when it failed.
func (r *report) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.fail(1, format, args...)
	}
}

func (r *report) fail(n int64, format string, args ...any) {
	r.failed += n
	if len(r.errs) < 16 {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
}

func (r *report) result(defs []metricDef) result {
	out := result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed,
		Metrics: make(map[string]metric, len(defs))}
	if out.Attempted < 1 {
		out.Attempted = 1
	}
	for _, d := range defs {
		out.Metrics[d.name] = metric{Value: r.vals[d.name], Unit: d.unit}
	}
	return out
}

var workloads = map[string]func(cfg runConfig, r *report) error{
	"alloc-small": func(cfg runConfig, r *report) error { return runAlloc(&allocSmall, cfg, r) },
	"alloc-large": func(cfg runConfig, r *report) error { return runAlloc(&allocLarge, cfg, r) },
	"kv-zipf":     runKV,
}

// runConfig is what the command line fixes for one run.
type runConfig struct {
	seed    uint64
	window  time.Duration
	trace   bool
	workDir string // scratch space inside the checkout (kv heap files)
	outDir  string // where a traced run writes its spans
}

func main() {
	workload := flag.String("workload", "", "workload name")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "length of the timed window")
	trace := flag.Int("trace", 0, "1: traced run printing the per-layer metrics")
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "usage: -workload %v -seed N -seconds S -trace 0|1\n", names)
		os.Exit(2)
	}
	cfg := runConfig{seed: *seed, window: time.Duration(*seconds) * time.Second,
		trace: *trace == 1, workDir: ".bench_build", outDir: ".bench_build/trace"}
	r := newReport()
	if err := run(cfg, r); err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", *workload, err)
		os.Exit(1)
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
		r.set("fail_frac", ratio(float64(r.failed), float64(r.attempted)))
	}
	for _, n := range r.notes {
		fmt.Println("#", n)
	}
	for _, e := range r.errs {
		fmt.Fprintln(os.Stderr, "FAIL:", e)
	}
	line, err := json.Marshal(r.result(defs))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if r.failed > 0 {
		os.Exit(1)
	}
}
