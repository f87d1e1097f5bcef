// Command benchjson converts `go test -bench -benchmem` output on stdin
// into a JSON summary on stdout, one record per benchmark with ns/op, B/op
// and allocs/op.  Multi-package runs are supported: each record carries the
// package whose `pkg:` header preceded it.  Repeated lines of one benchmark
// (`go test -count N`) fold into one record: its ns/op, B/op and allocs/op
// are the medians over the runs, with the minimum and maximum beside them.
// benchjson backs the Makefile bench-json target, which records the repo's
// perf trajectory (BENCH_PR*.json).
//
// Usage:
//
//	go test -run '^$' -bench . -benchmem -count 5 ./internal/embed ./internal/server | go run ./cmd/benchjson
//
// Every run is stamped with a bench_id — unique per invocation unless -id
// pins it — so runs of the same suite remain distinguishable after their
// documents are merged or archived together.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Result is one benchmark: one parsed line, or the fold of its repeated
// lines.  Extra carries any units beyond the standard three — custom
// b.ReportMetric values such as the classify census's Mshapes/s pass
// through under their reported unit.  Folded values are medians; the
// _min/_max fields give the spread of the standard three over the runs.
type Result struct {
	Name        string             `json:"name"`
	Pkg         string             `json:"pkg,omitempty"`
	Runs        int                `json:"runs"`
	Iterations  int64              `json:"iterations"` // summed over the runs
	NsPerOp     float64            `json:"ns_per_op"`
	NsPerOpMin  float64            `json:"ns_per_op_min"`
	NsPerOpMax  float64            `json:"ns_per_op_max"`
	BytesPerOp  float64            `json:"b_per_op"`
	BytesMin    float64            `json:"b_per_op_min"`
	BytesMax    float64            `json:"b_per_op_max"`
	AllocsPerOp float64            `json:"allocs_per_op"`
	AllocsMin   float64            `json:"allocs_per_op_min"`
	AllocsMax   float64            `json:"allocs_per_op_max"`
	Extra       map[string]float64 `json:"extra,omitempty"`
}

// Summary is the emitted document.  Pkg is kept for single-package runs
// (and holds the last package seen on multi-package input); the per-record
// Pkg field is authoritative.
type Summary struct {
	// BenchID identifies this run: the -id flag when given, else
	// host-pid-unixms, unique per invocation.
	BenchID    string   `json:"bench_id"`
	UnixMS     int64    `json:"unix_ms"`
	Goos       string   `json:"goos,omitempty"`
	Goarch     string   `json:"goarch,omitempty"`
	CPU        string   `json:"cpu,omitempty"`
	Pkg        string   `json:"pkg,omitempty"`
	Benchmarks []Result `json:"benchmarks"`
}

func main() {
	id := flag.String("id", "", "bench_id to stamp on the summary (default: host-pid-unixms)")
	flag.Parse()
	now := time.Now()
	sum, err := parse(os.Stdin)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	sum.BenchID, sum.UnixMS = *id, now.UnixMilli()
	if sum.BenchID == "" {
		host, _ := os.Hostname()
		if host == "" {
			host = "unknown"
		}
		sum.BenchID = fmt.Sprintf("%s-%d-%d", host, os.Getpid(), now.UnixMilli())
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(sum); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
}

// parse reads `go test -bench` output and folds the lines of each
// (package, benchmark) pair into one record, in first-seen order.
func parse(in io.Reader) (Summary, error) {
	sum := Summary{Benchmarks: []Result{}}
	type key struct{ pkg, name string }
	var order []key
	runs := map[key][]Result{}
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "goos:"):
			sum.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			sum.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "cpu:"):
			sum.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "pkg:"):
			sum.Pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
		case strings.HasPrefix(line, "Benchmark"):
			if r, ok := parseBench(line); ok {
				r.Pkg = sum.Pkg
				k := key{r.Pkg, r.Name}
				if runs[k] == nil {
					order = append(order, k)
				}
				runs[k] = append(runs[k], r)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return Summary{}, err
	}
	for _, k := range order {
		sum.Benchmarks = append(sum.Benchmarks, fold(runs[k]))
	}
	return sum, nil
}

// fold merges the runs of one benchmark into its median record.
func fold(runs []Result) Result {
	out := Result{Name: runs[0].Name, Pkg: runs[0].Pkg, Runs: len(runs)}
	extra := map[string][]float64{}
	for _, r := range runs {
		out.Iterations += r.Iterations
		for unit, v := range r.Extra {
			extra[unit] = append(extra[unit], v)
		}
	}
	out.NsPerOp, out.NsPerOpMin, out.NsPerOpMax = spread(runs, func(r Result) float64 { return r.NsPerOp })
	out.BytesPerOp, out.BytesMin, out.BytesMax = spread(runs, func(r Result) float64 { return r.BytesPerOp })
	out.AllocsPerOp, out.AllocsMin, out.AllocsMax = spread(runs, func(r Result) float64 { return r.AllocsPerOp })
	for unit, vs := range extra {
		if out.Extra == nil {
			out.Extra = make(map[string]float64, len(extra))
		}
		out.Extra[unit], _, _ = median(vs)
	}
	return out
}

// spread returns the median, minimum and maximum of one field over runs.
func spread(runs []Result, field func(Result) float64) (med, lo, hi float64) {
	vs := make([]float64, len(runs))
	for i, r := range runs {
		vs[i] = field(r)
	}
	return median(vs)
}

// median sorts vs and returns its median (the mean of the middle two for
// an even count), minimum and maximum.
func median(vs []float64) (med, lo, hi float64) {
	sort.Float64s(vs)
	n := len(vs)
	med = vs[n/2]
	if n%2 == 0 {
		med = (vs[n/2-1] + vs[n/2]) / 2
	}
	return med, vs[0], vs[n-1]
}

// parseBench parses a line of the form
//
//	BenchmarkName-8   123   456.7 ns/op   89 B/op   10 allocs/op
//
// Unknown value/unit pairs land in Extra so custom ReportMetric units are
// preserved.
func parseBench(line string) (Result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return Result{}, false
	}
	r := Result{Name: fields[0]}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Result{}, false
	}
	r.Iterations = iters
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			continue
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			r.NsPerOp = v
		case "B/op":
			r.BytesPerOp = v
		case "allocs/op":
			r.AllocsPerOp = v
		default:
			if r.Extra == nil {
				r.Extra = make(map[string]float64)
			}
			r.Extra[unit] = v
		}
	}
	return r, true
}
