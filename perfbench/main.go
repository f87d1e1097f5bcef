// Command perfbench is the repository's benchmark.  It boots the real
// cmd/embedserver, drives it from this one process through pkg/client with
// at most two concurrent clients, checks every response against a
// reference computed in-process from the public library functions, and
// prints the end-to-end metrics (or, with -trace 1, the per-layer metrics
// and the layer ladder).  The last line of its output is one JSON object.
//
// Usage (from the repository root, after building the server):
//
//	perfbench -workload hot-mix|cold-embed|batch-jobs -seed N -seconds S -trace 0|1 \
//	    -server .bench_build/embedserver -work .bench_build
//
// perfbench/run.py builds both binaries and runs this command.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
)

// metric is one reported number.
type metric struct {
	name, unit string
	value      float64
	note       string // printed beside the value, e.g. the sample count
}

// result is one run's outcome.
type result struct {
	attempted, failed int
	e2e               []metric // end-to-end metrics
	layers            []metric // per-layer metrics (traced runs)
	absent            []string // per-layer metrics this workload cannot measure, with why
	ladder            []string // the rendered layer ladder (traced runs)
	failures          []string
}

func (r *result) add(dst *[]metric, name, unit string, v float64, note string) {
	*dst = append(*dst, metric{name, unit, v, note})
}

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	server   string // embedserver binary
	work     string // scratch directory for job data and span files
	bench    string // BENCHMARK.json, which names the metrics the JSON line carries
}

// declared reads the metric names BENCHMARK.json gates (end_to_end) or
// lists (per_layer).
func declared(path string, trace bool) ([]string, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	list := spec.EndToEnd
	if trace {
		list = spec.PerLayer
	}
	var names []string
	for _, m := range list {
		names = append(names, m.Name)
	}
	return names, nil
}

func main() {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "hot-mix, cold-embed or batch-jobs")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	flag.IntVar(&cfg.seconds, "seconds", 10, "run length the phase sizes are derived from")
	flag.IntVar(&traceFlag, "trace", 0, "1: traced run printing the per-layer metrics and the layer ladder")
	flag.StringVar(&cfg.server, "server", filepath.Join(".bench_build", "embedserver"), "embedserver binary")
	flag.StringVar(&cfg.work, "work", ".bench_build", "directory for job data and span files")
	flag.StringVar(&cfg.bench, "benchmark", "BENCHMARK.json", "benchmark declaration naming the reported metrics")
	flag.Parse()
	cfg.trace = traceFlag == 1
	if cfg.seconds < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be at least 1")
		os.Exit(2)
	}
	names, err := declared(cfg.bench, cfg.trace)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	var res *result
	switch cfg.workload {
	case "hot-mix":
		res, err = runRequests(cfg, HotMix(cfg.seed, cfg.seconds), false)
	case "cold-embed":
		res, err = runRequests(cfg, ColdEmbed(cfg.seed, cfg.seconds), true)
	case "batch-jobs":
		res, err = runBatch(cfg, BatchJobs(cfg.seed))
	default:
		fmt.Fprintf(os.Stderr, "perfbench: unknown -workload %q (want hot-mix, cold-embed or batch-jobs)\n", cfg.workload)
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := report(cfg, res, names); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if len(res.failures) > 0 {
		os.Exit(1)
	}
}

// report prints the human-readable report, then the JSON line carrying
// the named metrics.
func report(cfg config, res *result, names []string) error {
	fmt.Printf("workload %s seed %d seconds %d trace %v\n", cfg.workload, cfg.seed, cfg.seconds, cfg.trace)
	for _, f := range res.failures[:min(len(res.failures), 20)] {
		fmt.Printf("MISMATCH %s\n", f)
	}
	if n := len(res.failures); n > 20 {
		fmt.Printf("MISMATCH ... and %d more\n", n-20)
	}
	table := func(title string, ms []metric) {
		fmt.Printf("%-34s %14s  %s\n", title, "value", "unit")
		for _, m := range ms {
			fmt.Printf("%-34s %14.6g  %-8s %s\n", m.name, m.value, m.unit, m.note)
		}
	}
	table("end-to-end metric", res.e2e)
	reported := res.e2e
	if cfg.trace {
		table("per-layer metric", res.layers)
		for _, a := range res.absent {
			name, why, _ := strings.Cut(a, ": ")
			fmt.Printf("%-34s %14s  %s\n", name, "absent", why)
		}
		for _, l := range res.ladder {
			fmt.Println(l)
		}
		reported = res.layers
	}
	ms := map[string]any{}
	for _, name := range names {
		i := slices.IndexFunc(reported, func(m metric) bool { return m.name == name })
		if i < 0 {
			return fmt.Errorf("%s declares %s, which workload %s does not measure", cfg.bench, name, cfg.workload)
		}
		ms[name] = map[string]any{"value": reported[i].value, "unit": reported[i].unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct":   len(res.failures) == 0,
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   ms,
	})
	if err != nil { // a NaN or Inf metric
		return fmt.Errorf("encode result: %w", err)
	}
	fmt.Println(string(line))
	return nil
}

// quantile returns the q-quantile (0..1) of xs by nearest rank.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// frac is a/b, or 0 when b is 0.
func frac(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
