package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"testing"
)

// tinySize keeps the smoke test to a few seconds per workload.
var tinySize = size{seqRows: 40, dashRows: 60, accts: 4, days: 30, budget: "64KiB"}

// TestCheckerRejectsCorruptedExpectation shows the answer checker is live:
// the rows a correct server returns pass, and the same rows fail once the
// test corrupts one expected value in the ledger.
func TestCheckerRejectsCorruptedExpectation(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			wl, err := newWorkload(name, 7, tinySize, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			o := wl.probe()
			vals := ledgerOf(wl, o)
			rows := seriesRows(expectWindow(vals, o.agg, o.l, o.h))
			if err := o.check(rows); err != nil {
				t.Fatalf("correct rows rejected: %v", err)
			}
			vals[len(vals)/2]++
			if err := o.check(rows); err == nil {
				t.Fatal("checker accepted rows after the expected value was corrupted")
			}
		})
	}
}

// ledgerOf returns the ledger slice a read is checked against.
func ledgerOf(wl workload, o op) []int64 {
	switch w := wl.(type) {
	case *derived:
		return w.vals
	case *dashboard:
		return w.vals
	case *warehouse:
		return w.vals[o.acct-1]
	}
	panic("unknown workload type")
}

func seriesRows(want []float64) [][]any {
	rows := make([][]any, len(want))
	for i, v := range want {
		rows[i] = []any{float64(i + 1), v}
	}
	return rows
}

// TestSmokeEmitsEveryMetric runs each workload at tiny sizes against a
// freshly built rfserverd, untraced and traced, and checks that every
// metric BENCHMARK.json names is emitted and every answer was right.
func TestSmokeEmitsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs rfserverd")
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	bin := filepath.Join(t.TempDir(), "rfserverd")
	build := exec.Command("go", "build", "-o", bin, "./cmd/rfserverd")
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build rfserverd: %v\n%s", err, out)
	}
	for _, name := range workloadNames {
		for _, trace := range []bool{false, true} {
			cfg := config{workload: name, seed: 3, seconds: 1, trace: trace, server: bin,
				work: t.TempDir(), size: tinySize, repeats: 1, replayShare: 1}
			res, _, err := run(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", name, trace, res.Correct, res.Attempted, res.Failed)
			}
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			var got, missing []string
			for k := range res.Metrics {
				got = append(got, k)
			}
			for _, m := range want {
				v, ok := res.Metrics[m.Name]
				if !ok {
					missing = append(missing, m.Name)
				} else if v.Unit != m.Unit {
					t.Errorf("%s: %s unit %q, want %q", name, m.Name, v.Unit, m.Unit)
				}
			}
			if len(missing) > 0 || len(got) != len(want) {
				sort.Strings(got)
				t.Errorf("%s trace=%v: missing %v; emitted %v", name, trace, missing, got)
			}
		}
	}
}
