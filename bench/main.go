// Command bench is the repo's benchmark: it drives the real served path
// from outside — keyspace, hash kernels, core, cracker, netproto over
// TCP on 127.0.0.1, the job service with its fsynced WAL, and the
// sharded plane — in one process, audits exactly-once coverage on every
// job, and prints every metric BENCHMARK.json names with its unit.
//
//	bash bench/run.sh --workload fleet-fine --seed 7 --seconds 20 --trace 0
//	bash bench/run.sh -out A.json              # every workload, timed then traced
//	bash bench/run.sh -compare A.json B.json   # PASS/FAIL against the bounds
//
// README.md explains the workloads, the metrics and how they interact.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// document is what -out writes and -compare reads.
type document struct {
	Seed      int64                `json:"seed"`
	Seconds   int                  `json:"seconds"`
	Host      string               `json:"host"`
	Workloads map[string]*wlResult `json:"workloads"`
}

type wlResult struct {
	EndToEnd *result `json:"end_to_end,omitempty"`
	PerLayer *result `json:"per_layer,omitempty"`
}

func main() {
	var (
		name    = flag.String("workload", "all", "workload to run, or all: timed then traced, each workload in turn")
		seed    = flag.Int64("seed", 1, "seed for planted identifiers, decoy digests and tenant names")
		seconds = flag.Int("seconds", 20, "length of one measurement window")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
		out     = flag.String("out", "", "also write the metrics document to this file")
		dir     = flag.String("dir", ".bench_build", "directory for WALs, span files and other run state")
		compare = flag.Bool("compare", false, "compare two -out documents (arguments: A.json B.json) against the bounds in -spec")
		spec    = flag.String("spec", "BENCHMARK.json", "benchmark description -compare takes its bounds from")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two documents, got %d", flag.NArg()))
		}
		ok, err := compareFiles(os.Stdout, *spec, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	if flag.NArg() != 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fatal(fmt.Errorf("bad arguments %q: want -workload NAME -seed N -seconds N -trace 0|1", os.Args[1:]))
	}

	todo := workloads
	if *name != "all" {
		w, ok := findWorkload(*name)
		if !ok {
			fatal(fmt.Errorf("no workload %q", *name))
		}
		todo = []workload{w}
	}
	// Every rig of this process lives under root.
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		fatal(err)
	}
	root, err := os.MkdirTemp(*dir, "run-")
	if err != nil {
		fatal(err)
	}
	doc := document{
		Seed: *seed, Seconds: *seconds, Workloads: map[string]*wlResult{},
		Host: fmt.Sprintf("%s/%s %d cpus %s", runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), runtime.Version()),
	}
	ok, err := runAll(context.Background(), &doc, todo, root, *dir, *name == "all", *trace == 1)
	os.RemoveAll(root)
	if err != nil {
		fatal(err)
	}
	if *out != "" {
		data, err := json.MarshalIndent(doc, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(data, '\n'), 0o644)
		}
		if err != nil {
			fatal(err)
		}
	}
	if !ok {
		os.Exit(1)
	}
}

// runAll runs the selected workloads and prints each result as it
// completes; the last line of a single-workload run is its result
// object. It reports whether every audit passed.
func runAll(ctx context.Context, doc *document, todo []workload, root, dir string, both, traced bool) (bool, error) {
	var layers metrics
	ok := true
	for _, w := range todo {
		wr := &wlResult{}
		doc.Workloads[w.name] = wr
		if both || !traced {
			res, err := runTimed(ctx, root, w, doc.Seed, float64(doc.Seconds))
			if err != nil {
				return false, fmt.Errorf("%s: %w", w.name, err)
			}
			wr.EndToEnd = res
			ok = report(w, res) && ok
		}
		if both || traced {
			if layers == nil {
				// The ladder and the control-plane calls do not depend on the
				// workload: one measurement serves every traced run.
				var err error
				if layers, err = ladder(ctx, 1); err != nil {
					return false, err
				}
				calls, err := controlPlane(ctx, root, 1)
				if err != nil {
					return false, err
				}
				for k, v := range calls {
					layers[k] = v
				}
			}
			res, err := runTraced(ctx, root, w, doc.Seed, float64(doc.Seconds), layers, filepath.Join(dir, "spans-"+w.name+".jsonl"))
			if err != nil {
				return false, fmt.Errorf("%s: %w", w.name, err)
			}
			wr.PerLayer = res
			ok = report(w, res) && ok
		}
	}
	return ok, nil
}

// report prints every metric by name with its unit, then the result
// object on one line.
func report(w workload, res *result) bool {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	bw := bufio.NewWriter(os.Stdout)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(bw, "%-16s %-34s %s %s\n", w.name, n, strconv.FormatFloat(m.Value, 'g', 8, 64), m.Unit)
	}
	share := float64(res.Failed) / float64(max(res.Attempted, 1))
	fmt.Fprintf(bw, "%-16s %-34s %g ratio (%d of %d jobs failed; the rest are the turnaround samples)\n", w.name, "failed_share", share, res.Failed, res.Attempted)
	line, err := json.Marshal(res)
	if err != nil {
		// A NaN or Inf metric: a measurement with no samples behind it.
		bw.Flush()
		fatal(fmt.Errorf("%s: unprintable result: %w", w.name, err))
	}
	bw.Write(line)
	bw.WriteByte('\n')
	bw.Flush()
	return res.Correct
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}
