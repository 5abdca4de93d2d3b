package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"keysearch/internal/jobs"
)

func TestPercentileAndMedian(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{{50, 3}, {95, 5}, {100, 5}, {20, 1}, {21, 2}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(%v, %v) = %v, want %v", xs, c.p, got, c.want)
		}
	}
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	if got := percentile(hundred, 95); got != 95 {
		t.Errorf("p95 of 1..100 = %v, want 95 (5 samples beyond it)", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 1..4 = %v, want 2.5", got)
	}
	if got := median(xs); got != 3 {
		t.Errorf("median of 1..5 = %v, want 3", got)
	}
	if !math.IsNaN(percentile(nil, 50)) || !math.IsNaN(median(nil)) {
		t.Error("no samples must yield NaN, which the result writer refuses")
	}
	if !reflect.DeepEqual(xs, []float64{5, 1, 4, 2, 3}) {
		t.Error("percentile sorted its argument in place")
	}
}

func TestTilingAuditor(t *testing.T) {
	good := []tile{{20, 30, 10}, {0, 10, 10}, {10, 20, 10}}
	if err := checkTiling(good, 30); err != nil {
		t.Fatalf("exact tiling rejected: %v", err)
	}
	bad := map[string][]tile{
		"gap":           {{0, 10, 10}, {20, 30, 10}},
		"overlap":       {{0, 10, 10}, {5, 20, 15}, {20, 30, 10}},
		"double commit": {{0, 10, 10}, {10, 20, 10}, {10, 20, 10}, {20, 30, 10}},
		"short":         {{0, 10, 10}, {10, 20, 10}},
		"long":          {{0, 10, 10}, {10, 40, 30}},
		"wrong tested":  {{0, 10, 10}, {10, 20, 9}, {20, 30, 10}},
		"empty lease":   {{0, 10, 10}, {10, 10, 0}, {10, 30, 20}},
		"nothing":       {},
	}
	for name, tiles := range bad {
		if err := checkTiling(tiles, 30); err == nil {
			t.Errorf("%s: accepted %v as a tiling of [0,30)", name, tiles)
		}
	}
}

func TestCheckJobCatchesCorruptedInput(t *testing.T) {
	good := jobs.Job{ID: "j1", State: jobs.StateDone, Space: "30", Tested: 30, Remaining: "0", Found: []string{"b", "a"}}
	planted := []string{"a", "b"}
	if err := checkJob(good, 30, planted); err != nil {
		t.Fatalf("correct job rejected: %v", err)
	}
	corrupt := map[string]func(j *jobs.Job){
		"not done":      func(j *jobs.Job) { j.State = jobs.StateFailed },
		"under-tested":  func(j *jobs.Job) { j.Tested = 29 },
		"remaining":     func(j *jobs.Job) { j.Remaining = "1" },
		"missing key":   func(j *jobs.Job) { j.Found = []string{"a"} },
		"wrong key":     func(j *jobs.Job) { j.Found = []string{"a", "c"} },
		"extra key":     func(j *jobs.Job) { j.Found = []string{"a", "b", "c"} },
		"repeated key":  func(j *jobs.Job) { j.Found = []string{"a", "a"} },
		"another space": func(j *jobs.Job) { j.Space = "31" },
	}
	for name, mutate := range corrupt {
		j := good
		mutate(&j)
		if err := checkJob(j, 30, planted); err == nil {
			t.Errorf("%s: corrupted job %+v passed the audit", name, j)
		}
	}
}

func TestGeneratorIsSeeded(t *testing.T) {
	w, _ := findWorkload("fleet-audit")
	w = w.toy()
	a, _ := newGenerator(w, 7, 0, false).next(w.maxLen)
	b, _ := newGenerator(w, 7, 0, false).next(w.maxLen)
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed and stream gave different inputs")
	}
	c, _ := newGenerator(w, 8, 0, false).next(w.maxLen)
	if reflect.DeepEqual(a.planted, c.planted) {
		t.Error("another seed planted the same keys")
	}
	if len(a.spec.Targets) != w.corpus || len(a.planted) != w.planted {
		t.Errorf("corpus of %d with %d planted, want %d and %d", len(a.spec.Targets), len(a.planted), w.corpus, w.planted)
	}
	if err := a.spec.Validate(); err != nil {
		t.Errorf("generated spec is invalid: %v", err)
	}

	warm, _ := newGenerator(w, 7, 0, true).next(w.maxLen)
	if reflect.DeepEqual(a.planted, warm.planted) {
		t.Error("the warm-up stream planted the same keys as the timed one")
	}

	// Each api client submits only for tenants its own shard owns.
	api, _ := findWorkload("api-small-jobs")
	for client := 0; client < api.clients; client++ {
		tenants := newGenerator(api, 7, client, false).tenants
		if len(tenants) != api.tenants/apiShards {
			t.Errorf("client %d has %d tenants, want %d", client, len(tenants), api.tenants/apiShards)
		}
		for _, tn := range tenants {
			if owner := apiRing().Owner(tn); owner != shardName(client) {
				t.Errorf("client %d: tenant %s lives on %s", client, tn, owner)
			}
		}
	}
}

func TestCompareBounds(t *testing.T) {
	spec := benchSpec{EndToEnd: []boundedMetric{
		{Name: "keys_per_s", Unit: "keys/s", Better: "higher", Bound: 0.05},
		{Name: "turnaround_p50_ms", Unit: "ms", Better: "lower", Bound: 0.07},
	}}
	spec.Workloads = append(spec.Workloads, struct {
		Name string `json:"name"`
	}{"w"})
	doc := func(keys, p50 float64, failed int) document {
		m := metrics{}
		m.set("keys_per_s", keys, "keys/s")
		m.set("turnaround_p50_ms", p50, "ms")
		return document{Workloads: map[string]*wlResult{"w": {EndToEnd: &result{Correct: failed == 0, Attempted: 10, Failed: failed, Metrics: m}}}}
	}
	base := doc(100, 100, 0)
	cases := []struct {
		name string
		b    document
		pass bool
	}{
		{"identical", doc(100, 100, 0), true},
		{"inside both bounds", doc(96, 106, 0), true},
		{"much better", doc(300, 10, 0), true},
		{"throughput 6% lower", doc(94, 100, 0), false},
		{"latency 8% higher", doc(100, 108, 0), false},
		{"a failed operation", doc(100, 100, 1), false},
	}
	for _, c := range cases {
		var out bytes.Buffer
		if got := compareDocs(&out, spec, base, c.b); got != c.pass {
			t.Errorf("%s: pass = %v, want %v\n%s", c.name, got, c.pass, out.String())
		}
	}
	var out bytes.Buffer
	missing := doc(100, 100, 0)
	delete(missing.Workloads["w"].EndToEnd.Metrics, "keys_per_s")
	if compareDocs(&out, spec, base, missing) {
		t.Error("a document without keys_per_s passed")
	}
}

// loadSpec reads the BENCHMARK.json this package is described by.
func loadSpec(t *testing.T) (names func(list string) map[string]string, raw map[string]json.RawMessage) {
	t.Helper()
	if err := readJSON(filepath.Join("..", "BENCHMARK.json"), &raw); err != nil {
		t.Fatal(err)
	}
	names = func(list string) map[string]string {
		var ms []boundedMetric
		if err := json.Unmarshal(raw[list], &ms); err != nil {
			t.Fatal(err)
		}
		out := map[string]string{}
		for _, m := range ms {
			out[m.Name] = m.Unit
		}
		return out
	}
	return names, raw
}

func unitsOf(m metrics) map[string]string {
	out := map[string]string{}
	for name, v := range m {
		out[name] = v.Unit
	}
	return out
}

func TestBenchmarkJSONListsTheWorkloads(t *testing.T) {
	_, raw := loadSpec(t)
	var listed []struct{ Name string }
	if err := json.Unmarshal(raw["workloads"], &listed); err != nil {
		t.Fatal(err)
	}
	var got, want []string
	for _, l := range listed {
		got = append(got, l.Name)
	}
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json lists workloads %v, the code has %v", got, want)
	}
}

// Every workload at toy size (3-character spaces) must pass its own
// audits and report exactly the end-to-end metrics BENCHMARK.json
// names.
func TestWorkloadsAtToySize(t *testing.T) {
	names, _ := loadSpec(t)
	want := names("end_to_end")
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res, err := runTimed(context.Background(), t.TempDir(), w.toy(), 3, 0.3)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("result %+v", res)
			}
			if w.api && res.Attempted < 2*w.clients {
				t.Errorf("only %d jobs in the window, want every client to loop", res.Attempted)
			}
			if got := unitsOf(res.Metrics); !reflect.DeepEqual(got, want) {
				t.Errorf("metrics and units %v, BENCHMARK.json names %v", got, want)
			}
			for name, m := range res.Metrics {
				if !(m.Value > 0) {
					t.Errorf("%s = %v, want a positive number", name, m.Value)
				}
			}
		})
	}
}

// A traced run must report exactly the per-layer metrics BENCHMARK.json
// names, and its spans must account for the executors' wall time.
func TestTracedRunAtToySize(t *testing.T) {
	ctx := context.Background()
	names, _ := loadSpec(t)
	layers, err := ladder(ctx, 1e-4)
	if err != nil {
		t.Fatal(err)
	}
	calls, err := controlPlane(ctx, t.TempDir(), 1e-2)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range calls {
		layers[k] = v
	}
	w, _ := findWorkload("fleet-fine")
	spanFile := filepath.Join(t.TempDir(), "spans.jsonl")
	res, err := runTraced(ctx, t.TempDir(), w.toy(), 3, 0.15, layers, spanFile)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 {
		t.Fatalf("result %+v", res)
	}
	if got, want := unitsOf(res.Metrics), names("per_layer"); !reflect.DeepEqual(got, want) {
		var diff []string
		for n, u := range want {
			if got[n] != u {
				diff = append(diff, n+" want "+u+" got "+got[n])
			}
		}
		for n := range got {
			if _, ok := want[n]; !ok {
				diff = append(diff, n+" is not in BENCHMARK.json")
			}
		}
		sort.Strings(diff)
		t.Errorf("per-layer metrics differ from BENCHMARK.json:\n%s", strings.Join(diff, "\n"))
	}
	v := func(name string) float64 { return res.Metrics[name].Value }
	if v("jobs.retested_keys") != 0 {
		t.Errorf("retested %v keys", v("jobs.retested_keys"))
	}
	// 20+20^2+20^3 = 8420 keys in 512-key leases.
	if v("jobs.leases_per_job") != 17 {
		t.Errorf("%v leases per job, want 17", v("jobs.leases_per_job"))
	}
	if f := v("fleet.busy_fraction"); !(f > 0 && f <= 1) {
		t.Errorf("busy fraction %v", f)
	}

	f, err := os.Open(spanFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	lines := 0
	for sc := bufio.NewScanner(f); sc.Scan(); lines++ {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("span line %d: %v", lines, err)
		}
		if s.EndNS < s.BeginNS || s.SearchNS > s.EndNS-s.BeginNS || s.Tested != s.End-s.Start || s.Err != "" {
			t.Fatalf("span line %d is inconsistent: %+v", lines, s)
		}
	}
	if lines == 0 || lines%17 != 0 {
		t.Errorf("%d spans in the file, want 17 per job", lines)
	}
}
