package main

import (
	"os"
	"reflect"
	"testing"
)

// TestParseFoldsRepeatedLines checks that the runs of one benchmark fold
// into a single record with the median, minimum and maximum of each
// standard unit, that the same name in another package stays its own
// record, and that records keep their first-seen order.
func TestParseFoldsRepeatedLines(t *testing.T) {
	f, err := os.Open("testdata/repeated.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sum, err := parse(f)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Goos != "linux" || sum.CPU != "Intel(R) Xeon(R) Processor" {
		t.Errorf("header fields: %+v", sum)
	}
	want := []Result{
		{
			Name: "BenchmarkMeasure/64x64x64-2", Pkg: "repro/internal/embed", Runs: 5, Iterations: 373,
			NsPerOp: 16536065, NsPerOpMin: 14977356, NsPerOpMax: 16825727,
			BytesPerOp: 2392218, BytesMin: 2392216, BytesMax: 2392279,
			AllocsPerOp: 8, AllocsMin: 8, AllocsMax: 9,
		},
		{
			Name: "BenchmarkMeasure/3x5x17pinned-2", Pkg: "repro/internal/embed", Runs: 2, Iterations: 63399,
			NsPerOp: 37059, NsPerOpMin: 36895, NsPerOpMax: 37223,
			BytesPerOp: 5272, BytesMin: 5272, BytesMax: 5272,
			AllocsPerOp: 8, AllocsMin: 8, AllocsMax: 8,
		},
		{
			Name: "BenchmarkClassify-2", Pkg: "repro/internal/core", Runs: 2, Iterations: 2000000,
			NsPerOp: 41, NsPerOpMin: 40.5, NsPerOpMax: 41.5,
			Extra: map[string]float64{"Mshapes/s": 8000},
		},
		{
			Name: "BenchmarkMeasure/64x64x64-2", Pkg: "repro/internal/core", Runs: 1, Iterations: 10,
			NsPerOp: 1e8, NsPerOpMin: 1e8, NsPerOpMax: 1e8,
		},
	}
	if len(sum.Benchmarks) != len(want) {
		t.Fatalf("%d records, want %d: %+v", len(sum.Benchmarks), len(want), sum.Benchmarks)
	}
	for i, w := range want {
		if got := sum.Benchmarks[i]; !reflect.DeepEqual(got, w) {
			t.Errorf("record %d:\n got  %+v\n want %+v", i, got, w)
		}
	}
}
