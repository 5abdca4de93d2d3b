// Command keybench reproduces the Table VIII model-vs-measured comparison
// and writes a machine-readable report. For every catalog device and both
// hash algorithms it compares three numbers: the analytic achieved model
// (Section VI), the cycle-level multiprocessor simulation, and the
// throughput the paper measured on the real hardware. It also benchmarks
// the host CPU search with telemetry enabled (the counters double-check
// the tested totals) and runs a dispatch exactness smoke: summed
// per-worker tested counters must equal the interval size exactly.
//
// With -targetset it instead benchmarks multi-target search: per-candidate
// cost at corpus sizes 1, 10^3 and 10^6 against the single-target
// baseline, for MD5 (full hash per candidate) and SHA1 (the served run
// walk with its word-4 probe), plus the Bloom filter's measured
// false-positive rate against the requested rate — the
// BENCH_targetset.json document. The run fails if either algorithm's
// million-target per-candidate cost exceeds 1.5x its single-target
// baseline or the measured FPR exceeds 2x the requested rate, so a
// regression in the pre-screen's flatness breaks the build instead of
// the report.
//
// With -fleetsim it benchmarks the fleet simulation instead: virtual-time
// runs of thousands of churning workers over the real job service —
// an undisturbed baseline, a slowdown-degraded fleet under the static
// balance rule, the same degraded fleet with adaptive work stealing,
// and a full crash/leave/join/slowdown mix — plus the static-redundancy
// overlap trade-off curve. The run fails unless adaptive stealing beats
// static balancing on makespan, so a regression in the stealing path
// breaks the build instead of the BENCH_sim.json report.
//
// With -steal it sweeps the work-stealing policy instead: steal
// threshold × lease duration × progress-mark cadence, each scored under
// a slowdown mix and a crash/leave/join churn mix against the no-steal
// baseline at the same lease duration. The winning policy backs the
// jobs.StealOptions defaults; the run fails unless it beats the
// baseline, so the defaults can never regress silently.
//
// Usage:
//
//	keybench -quick -out BENCH_telemetry.json
//	keybench -targetset -out BENCH_targetset.json
//	keybench -fleetsim -out BENCH_sim.json
//	keybench -steal -out BENCH_steal.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"keysearch/internal/arch"
	"keysearch/internal/compile"
	"keysearch/internal/core"
	"keysearch/internal/cracker"
	"keysearch/internal/dispatch"
	"keysearch/internal/gpu"
	"keysearch/internal/hash/md5x"
	"keysearch/internal/hash/sha1x"
	"keysearch/internal/kernel"
	"keysearch/internal/keyspace"
	"keysearch/internal/model"
	"keysearch/internal/paperdata"
	"keysearch/internal/telemetry"
)

// DeviceRow is one device × algorithm line of the Table VIII comparison.
type DeviceRow struct {
	Device string `json:"device"`
	CC     string `json:"cc"`
	Alg    string `json:"alg"`
	// ModeledMKeys is the analytic achieved model (Section VI).
	ModeledMKeys float64 `json:"modeled_mkeys"`
	// MeasuredMKeys comes from the cycle-level MP simulation — the
	// reproduction's stand-in for running the kernel on real silicon.
	MeasuredMKeys float64 `json:"measured_mkeys"`
	// PaperMKeys is the "our approach" column of Table VIII (0 = absent).
	PaperMKeys float64 `json:"paper_mkeys"`
	// MeasuredOverModeled is the simulation/model agreement ratio.
	MeasuredOverModeled float64 `json:"measured_over_modeled"`
	// DualIssue and ILP are the statically derived dependency facts the
	// model consumed (ircheck dataflow), not hand-set parameters.
	DualIssue float64 `json:"dual_issue"`
	ILP       float64 `json:"ilp"`
}

// HostRow is one host-CPU benchmark line.
type HostRow struct {
	Alg     string  `json:"alg"`
	Tested  uint64  `json:"tested"`
	Seconds float64 `json:"seconds"`
	MKeys   float64 `json:"mkeys"`
	// CounterTested is the telemetry core.tested counter after the run;
	// it must equal Tested exactly.
	CounterTested uint64 `json:"counter_tested"`
}

// Exactness reports the dispatch smoke: every identifier gathered once.
type Exactness struct {
	Interval uint64 `json:"interval"`
	Tested   uint64 `json:"tested"`
	Retested uint64 `json:"retested"`
	Requeues int    `json:"requeues"`
	Exact    bool   `json:"exact"`
}

// Report is the whole BENCH_telemetry.json document.
type Report struct {
	Quick     bool                `json:"quick"`
	Devices   []DeviceRow         `json:"devices"`
	Host      []HostRow           `json:"host"`
	Exactness Exactness           `json:"exactness"`
	Telemetry *telemetry.Snapshot `json:"telemetry"`
}

func main() {
	var (
		quick     = flag.Bool("quick", false, "smaller CPU intervals and fewer simulated iterations (CI smoke)")
		targetset = flag.Bool("targetset", false, "benchmark multi-target corpus search instead of the Table VIII report")
		fleetSim  = flag.Bool("fleetsim", false, "benchmark the virtual-time fleet simulation instead of the Table VIII report")
		shardPl   = flag.Bool("shardplane", false, "benchmark the sharded control plane (router overhead, failover rehearsal) instead of the Table VIII report")
		stealSw   = flag.Bool("steal", false, "sweep the work-stealing policy (threshold x lease x progress cadence, across churn mixes) instead of the Table VIII report")
		out       = flag.String("out", "", "output path for the machine-readable report")
	)
	flag.Parse()

	if *stealSw {
		if *out == "" {
			*out = "BENCH_steal.json"
		}
		if err := stealMain(*quick, *out); err != nil {
			fatal(err)
		}
		return
	}

	if *shardPl {
		if *out == "" {
			*out = "BENCH_shardplane.json"
		}
		if err := shardplaneMain(*quick, *out); err != nil {
			fatal(err)
		}
		return
	}

	if *fleetSim {
		if *out == "" {
			*out = "BENCH_sim.json"
		}
		if err := fleetsimMain(*quick, *out); err != nil {
			fatal(err)
		}
		return
	}
	if *targetset {
		if *out == "" {
			*out = "BENCH_targetset.json"
		}
		if err := targetsetMain(*quick, *out); err != nil {
			fatal(err)
		}
		return
	}
	if *out == "" {
		*out = "BENCH_telemetry.json"
	}

	rep := &Report{Quick: *quick}
	iters := 4
	if *quick {
		iters = 2
	}

	fmt.Println("== Table VIII: modeled vs simulated vs paper (MKey/s) ==")
	for _, dev := range arch.Catalog {
		for _, alg := range []string{"md5", "sha1"} {
			row, err := deviceRow(dev, alg, iters)
			if err != nil {
				fatal(err)
			}
			rep.Devices = append(rep.Devices, row)
			fmt.Printf("%-22s %-5s %-5s model %8.1f  sim %8.1f  paper %8.1f  (sim/model %.3f)\n",
				row.Device, row.CC, row.Alg, row.ModeledMKeys, row.MeasuredMKeys, row.PaperMKeys,
				row.MeasuredOverModeled)
		}
	}

	reg := telemetry.NewRegistry()
	fmt.Println("== Host CPU measured (telemetry enabled) ==")
	for _, alg := range []string{"md5", "sha1"} {
		row, err := hostRow(alg, *quick, reg)
		if err != nil {
			fatal(err)
		}
		rep.Host = append(rep.Host, row)
		fmt.Printf("%-5s tested %9d in %6.3fs: %8.2f MKey/s (counter %d)\n",
			row.Alg, row.Tested, row.Seconds, row.MKeys, row.CounterTested)
	}

	ex, err := exactnessSmoke(reg)
	if err != nil {
		fatal(err)
	}
	rep.Exactness = ex
	fmt.Printf("== Dispatch exactness: interval %d, tested %d, retested %d, requeues %d, exact=%v ==\n",
		ex.Interval, ex.Tested, ex.Retested, ex.Requeues, ex.Exact)
	if !ex.Exact {
		fatal(fmt.Errorf("tested counters do not cover the interval exactly"))
	}

	rep.Telemetry = reg.Snapshot()
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("report written to %s\n", *out)
}

// deviceRow builds and simulates the optimized kernel for one device.
func deviceRow(dev arch.Device, alg string, iters int) (DeviceRow, error) {
	key := []byte("Key4SUFF")
	var block [16]uint32
	var src *kernel.Program
	switch alg {
	case "sha1":
		if err := sha1x.PackKey(key, &block); err != nil {
			return DeviceRow{}, err
		}
		src = kernel.BuildSHA1(kernel.SHA1Config{
			Template: block, Target: sha1x.StateWords(sha1x.Sum(key)), EarlyExit: true,
		})
	default:
		if err := md5x.PackKey(key, &block); err != nil {
			return DeviceRow{}, err
		}
		src = kernel.BuildMD5(kernel.MD5Config{
			Template: block, Target: md5x.StateWords(md5x.Sum(key)), Reversal: true, EarlyExit: true,
		})
	}
	// The benchmark is not a hot path: run the verified pipeline, so a
	// miscompile fails the report instead of skewing it.
	c, err := compile.CompileChecked(src, compile.DefaultOptions(dev.CC))
	if err != nil {
		return DeviceRow{}, err
	}
	prof := model.FromCompiled(c)
	modeled := model.Achieved(dev, prof, model.AchievedOptions{ILP: -1})

	sim, err := gpu.SimulateMP(c.Program, dev.CC, arch.Spec(dev.CC).MaxResidentWarps, iters)
	if err != nil {
		return DeviceRow{}, err
	}
	cyc := sim.CyclesPerCandidate(c.Streams)
	measured := 0.0
	if cyc > 0 {
		measured = dev.ClockHz() * float64(dev.MPs) / cyc
	}

	paper := 0.0
	if row, ok := paperdata.TableVIII[dev.Name]; ok {
		if alg == "sha1" {
			paper = row.SHA1Ours
		} else {
			paper = row.MD5Ours
		}
	}
	ratio := 0.0
	if modeled > 0 {
		ratio = measured / modeled
	}
	return DeviceRow{
		Device: dev.Name, CC: dev.CC.String(), Alg: alg,
		ModeledMKeys: modeled / 1e6, MeasuredMKeys: measured / 1e6, PaperMKeys: paper,
		MeasuredOverModeled: ratio, DualIssue: prof.DualIssue, ILP: prof.ILP,
	}, nil
}

// hostRow exhausts a small interval on the local CPU cores with telemetry
// enabled and cross-checks the core.tested counter against the result.
func hostRow(alg string, quick bool, reg *telemetry.Registry) (HostRow, error) {
	calg, err := cracker.ParseAlgorithm(alg)
	if err != nil {
		return HostRow{}, err
	}
	cs, err := keyspace.NewCharset("abcdefghijklmnopqrstuvwxyz")
	if err != nil {
		return HostRow{}, err
	}
	maxLen := 5
	if quick {
		maxLen = 4
	}
	space, err := keyspace.New(cs, 1, maxLen, keyspace.PrefixMajor)
	if err != nil {
		return HostRow{}, err
	}
	job, err := cracker.NewJobHex(calg, targetHex(calg), space)
	if err != nil {
		return HostRow{}, err
	}
	size, _ := space.Size64()
	n := size
	if n > 1<<21 {
		n = 1 << 21
	}
	if quick {
		n = min(n, 1<<19)
	}
	before := reg.Counter(telemetry.MetricCoreTested).Value()
	start := time.Now()
	res, err := cracker.CrackAll(context.Background(), job,
		keyspace.NewInterval(0, int64(n)), core.Options{Telemetry: reg})
	if err != nil {
		return HostRow{}, err
	}
	sec := time.Since(start).Seconds()
	return HostRow{
		Alg: alg, Tested: res.Tested, Seconds: sec,
		MKeys:         float64(res.Tested) / sec / 1e6,
		CounterTested: reg.Counter(telemetry.MetricCoreTested).Value() - before,
	}, nil
}

// targetHex is a digest that is NOT in the searched interval prefix, so
// the benchmark always exhausts its interval.
func targetHex(alg cracker.Algorithm) string {
	if alg.DigestSize() == 20 {
		s := sha1x.Sum([]byte("not-in-space!"))
		return fmt.Sprintf("%x", s[:])
	}
	sum := md5x.Sum([]byte("not-in-space!"))
	return fmt.Sprintf("%x", sum[:])
}

// exactnessSmoke runs the concurrent dispatcher over simulated workers —
// one of which dies mid-run — and checks the gathered totals cover the
// interval exactly, with the duplicated work in retested, not tested.
func exactnessSmoke(reg *telemetry.Registry) (Exactness, error) {
	const interval = 200_000
	mk := func(name string, x float64, dieAfter int) *dispatch.FuncWorker {
		calls := 0
		return &dispatch.FuncWorker{
			WorkerName: name,
			TuneFunc: func(context.Context) (core.Tuning, error) {
				return core.Tuning{MinBatch: 1000, Throughput: x}, nil
			},
			SearchFunc: func(ctx context.Context, iv keyspace.Interval) (*dispatch.Report, error) {
				calls++
				if dieAfter > 0 && calls > dieAfter {
					return nil, fmt.Errorf("%s: injected death", name)
				}
				n, _ := iv.Len64()
				return &dispatch.Report{Tested: n}, nil
			},
		}
	}
	d := dispatch.NewDispatcher("bench", dispatch.Options{
		Telemetry: reg, MaxChunk: 10_000,
	}, mk("bench-a", 1e6, 0), mk("bench-b", 5e5, 0), mk("bench-c", 8e5, 2))
	rep, err := d.Search(context.Background(), keyspace.NewInterval(0, interval))
	if err != nil {
		return Exactness{}, err
	}
	sum := reg.Snapshot().SumPrefix(telemetry.MetricDispatchTested + ".")
	ex := Exactness{
		Interval: interval,
		Tested:   rep.Tested,
		Retested: rep.Retested,
		Requeues: rep.Requeues,
		Exact:    rep.Tested == interval && sum == interval,
	}
	return ex, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "keybench:", err)
	os.Exit(1)
}
