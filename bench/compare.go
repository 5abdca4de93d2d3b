package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// benchSpec is the part of BENCHMARK.json the comparison needs.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []boundedMetric `json:"end_to_end"`
}

type boundedMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// exactCounts are per-layer counts that must repeat exactly between
// two runs of one commit.
var exactCounts = []string{"jobs.leases_per_job", "jobs.retested_keys"}

// worseBy is the share of base a by which b is worse (negative when b
// is better), in the direction the metric names.
func (m boundedMetric) worseBy(a, b float64) float64 {
	if m.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

func compareFiles(w io.Writer, specPath, aPath, bPath string) (bool, error) {
	var spec benchSpec
	var a, b document
	for path, v := range map[string]any{specPath: &spec, aPath: &a, bPath: &b} {
		if err := readJSON(path, v); err != nil {
			return false, err
		}
	}
	return compareDocs(w, spec, a, b), nil
}

// compareDocs prints, per workload and end-to-end metric, both values,
// their ratio (A is the base), and PASS unless B is worse than A by more
// than the metric's bound; any failed operation on either side fails
// the workload. It reports whether everything passed.
func compareDocs(w io.Writer, spec benchSpec, a, b document) bool {
	pass := true
	verdict := func(ok bool) string {
		if ok {
			return "PASS"
		}
		pass = false
		return "FAIL"
	}
	fmt.Fprintf(w, "%-16s %-20s %14s %14s %-7s %9s %9s %6s\n", "workload", "metric", "A (base)", "B", "unit", "B/A", "worse by", "bound")
	for _, wl := range spec.Workloads {
		ra, rb := a.Workloads[wl.Name], b.Workloads[wl.Name]
		if ra == nil || rb == nil {
			continue
		}
		if ea, eb := ra.EndToEnd, rb.EndToEnd; ea != nil && eb != nil {
			for _, m := range spec.EndToEnd {
				va, okA := ea.Metrics[m.Name]
				vb, okB := eb.Metrics[m.Name]
				if !okA || !okB {
					fmt.Fprintf(w, "%-16s %-20s missing from a document  %s\n", wl.Name, m.Name, verdict(false))
					continue
				}
				worse := m.worseBy(va.Value, vb.Value)
				fmt.Fprintf(w, "%-16s %-20s %14.6g %14.6g %-7s %9.4f %+8.2f%% %5.0f%%  %s\n",
					wl.Name, m.Name, va.Value, vb.Value, m.Unit, vb.Value/va.Value,
					100*worse, 100*m.Bound, verdict(worse <= m.Bound))
			}
			fmt.Fprintf(w, "%-16s %-20s %14s %14s  %s\n", wl.Name, "failed/attempted",
				fmt.Sprintf("%d/%d", ea.Failed, ea.Attempted), fmt.Sprintf("%d/%d", eb.Failed, eb.Attempted),
				verdict(ea.Failed == 0 && eb.Failed == 0 && ea.Correct && eb.Correct))
		}
		if la, lb := ra.PerLayer, rb.PerLayer; la != nil && lb != nil {
			for _, name := range exactCounts {
				va, vb := la.Metrics[name], lb.Metrics[name]
				fmt.Fprintf(w, "%-16s %-20s %14.6g %14.6g  must repeat exactly  %s\n",
					wl.Name, name, va.Value, vb.Value, verdict(va == vb))
			}
		}
	}
	return pass
}
