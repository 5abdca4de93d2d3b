// Benchmarks regenerating every table and figure of the paper (see
// DESIGN.md §4 for the experiment index). Each benchmark reports the
// quantities of its table via b.ReportMetric — paper values are in
// internal/paperdata for side-by-side comparison, and EXPERIMENTS.md
// records a full run.
//
// Run with:
//
//	go test -bench=. -benchmem .
package keysearch_test

import (
	"context"
	"testing"

	"keysearch"

	"keysearch/internal/arch"
	"keysearch/internal/baseline"
	"keysearch/internal/compile"
	"keysearch/internal/core"
	"keysearch/internal/cracker"
	"keysearch/internal/dispatch"
	"keysearch/internal/gpu"
	"keysearch/internal/hash/md5x"
	"keysearch/internal/kernel"
	"keysearch/internal/keyspace"
	"keysearch/internal/model"
)

// ---------------------------------------------------------------------
// Figures 1 and 2: the f(id) conversion versus the next operator. The
// paper's cost model (§III.A) rests on K_next << K_f; the reported
// ns/op of these two benchmarks quantify the gap.

func BenchmarkFig1_FOfID(b *testing.B) {
	space := keyspace.MustNew(keyspace.Alnum, 8, 8, keyspace.PrefixMajor)
	var buf []byte
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = space.AppendKey64(buf[:0], uint64(i)%1_000_000)
	}
}

func BenchmarkFig2_Next(b *testing.B) {
	space := keyspace.MustNew(keyspace.Alnum, 8, 8, keyspace.PrefixMajor)
	cur := keyspace.NewCursor64(space, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !cur.Next() {
			cur = keyspace.NewCursor64(space, 0)
		}
	}
}

// ---------------------------------------------------------------------
// Tables I, II and VII are model inputs (published hardware specs); their
// benchmarks validate internal consistency and measure catalog access.

func BenchmarkTableI_II_ArchSpecs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, cc := range arch.All {
			s := arch.Spec(cc)
			t := arch.InstrThroughput(cc)
			if s.CoreGroups*s.GroupSize != s.CoresPerMP || t.Add == 0 {
				b.Fatal("inconsistent architecture table")
			}
		}
	}
}

func BenchmarkTableVII_DeviceCatalog(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, d := range arch.Catalog {
			if err := d.Validate(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// ---------------------------------------------------------------------
// Tables III–VI: kernel construction, per-architecture compilation, and
// the class counts the paper reads out of cuobjdump.

func md5KernelSources() (plain, optimized *kernel.Program) {
	var block [16]uint32
	if err := md5x.PackKey([]byte("Key4"), &block); err != nil {
		panic(err)
	}
	target := md5x.StateWords(md5x.Sum([]byte("Key4")))
	plain = kernel.BuildMD5(kernel.MD5Config{Template: block, Target: target})
	optimized = kernel.BuildMD5(kernel.MD5Config{Template: block, Target: target, Reversal: true, EarlyExit: true})
	return
}

func BenchmarkTableIII_SourceCounts(b *testing.B) {
	var counts kernel.Counts
	var plain *kernel.Program
	for i := 0; i < b.N; i++ {
		plain, _ = md5KernelSources()
		counts = plain.CountClasses()
	}
	b.ReportMetric(float64(counts[kernel.ClassAdd]), "IADD")
	b.ReportMetric(float64(counts[kernel.ClassLogic]-plain.CountNot()), "LOP")
	b.ReportMetric(float64(counts[kernel.ClassShift]), "SHIFT")
}

func benchCompileCounts(b *testing.B, optimized bool, cc arch.CC, bytePerm bool) {
	b.Helper()
	plain, opt := md5KernelSources()
	src := plain
	if optimized {
		src = opt
	}
	var c *compile.Compiled
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c = compile.Compile(src, compile.Options{CC: cc, BytePerm: bytePerm})
	}
	b.ReportMetric(float64(c.Counts[kernel.ClassAdd]), "IADD")
	b.ReportMetric(float64(c.Counts[kernel.ClassShift]), "SHIFT")
	b.ReportMetric(float64(c.Counts[kernel.ClassMAD]), "IMAD")
	b.ReportMetric(float64(c.Counts[kernel.ClassPerm]), "PRMT")
}

func BenchmarkTableIV_Compile_CC1x(b *testing.B) { benchCompileCounts(b, false, arch.CC1x, false) }
func BenchmarkTableIV_Compile_CC30(b *testing.B) { benchCompileCounts(b, false, arch.CC30, false) }
func BenchmarkTableV_Compile_CC1x(b *testing.B)  { benchCompileCounts(b, true, arch.CC1x, false) }
func BenchmarkTableV_Compile_CC30(b *testing.B)  { benchCompileCounts(b, true, arch.CC30, false) }
func BenchmarkTableVI_Compile_CC30(b *testing.B) { benchCompileCounts(b, true, arch.CC30, true) }

// ---------------------------------------------------------------------
// Table VIII: modeled single-GPU throughput, one benchmark per device and
// algorithm; the MKeys metrics are directly comparable to the paper rows.

func benchTableVIII(b *testing.B, dev arch.Device, alg baseline.Algorithm) {
	b.Helper()
	var theo, ours float64
	for i := 0; i < b.N; i++ {
		theo = baseline.Theoretical(alg, dev)
		ours = baseline.Throughput(baseline.Ours, alg, dev)
	}
	b.ReportMetric(theo/1e6, "theoretical-MKeys/s")
	b.ReportMetric(ours/1e6, "ours-MKeys/s")
	b.ReportMetric(ours/theo, "efficiency")
}

func BenchmarkTableVIII_MD5_8600M(b *testing.B) { benchTableVIII(b, arch.GeForce8600MGT, baseline.MD5) }
func BenchmarkTableVIII_MD5_8800(b *testing.B)  { benchTableVIII(b, arch.GeForce8800GTS, baseline.MD5) }
func BenchmarkTableVIII_MD5_540M(b *testing.B)  { benchTableVIII(b, arch.GeForceGT540M, baseline.MD5) }
func BenchmarkTableVIII_MD5_550Ti(b *testing.B) {
	benchTableVIII(b, arch.GeForceGTX550Ti, baseline.MD5)
}
func BenchmarkTableVIII_MD5_660(b *testing.B) { benchTableVIII(b, arch.GeForceGTX660, baseline.MD5) }
func BenchmarkTableVIII_SHA1_8600M(b *testing.B) {
	benchTableVIII(b, arch.GeForce8600MGT, baseline.SHA1)
}
func BenchmarkTableVIII_SHA1_8800(b *testing.B) {
	benchTableVIII(b, arch.GeForce8800GTS, baseline.SHA1)
}
func BenchmarkTableVIII_SHA1_540M(b *testing.B) { benchTableVIII(b, arch.GeForceGT540M, baseline.SHA1) }
func BenchmarkTableVIII_SHA1_550Ti(b *testing.B) {
	benchTableVIII(b, arch.GeForceGTX550Ti, baseline.SHA1)
}
func BenchmarkTableVIII_SHA1_660(b *testing.B) { benchTableVIII(b, arch.GeForceGTX660, baseline.SHA1) }

// Competitor rows of Table VIII (BarsWF / Cryptohaze ablation models).
func BenchmarkTableVIII_Baselines_660(b *testing.B) {
	dev := arch.GeForceGTX660
	var bars, crypt float64
	for i := 0; i < b.N; i++ {
		bars = baseline.Throughput(baseline.BarsWF, baseline.MD5, dev)
		crypt = baseline.Throughput(baseline.Cryptohaze, baseline.MD5, dev)
	}
	b.ReportMetric(bars/1e6, "BarsWF-MKeys/s")
	b.ReportMetric(crypt/1e6, "Cryptohaze-MKeys/s")
}

// ---------------------------------------------------------------------
// Table IX: the whole-network run in virtual time.

func benchTableIX(b *testing.B, alg baseline.Algorithm) {
	b.Helper()
	var eff, mkeys float64
	for i := 0; i < b.N; i++ {
		tree := dispatch.PaperNetwork(func(d arch.Device) float64 {
			return baseline.Throughput(baseline.Ours, alg, d)
		})
		res, err := dispatch.SimulateCluster(tree, tree.SumThroughput()*30, dispatch.ClusterOptions{})
		if err != nil {
			b.Fatal(err)
		}
		var theo float64
		for _, d := range arch.Catalog {
			theo += baseline.Theoretical(alg, d)
		}
		eff = res.Throughput / theo
		mkeys = res.Throughput / 1e6
	}
	b.ReportMetric(mkeys, "network-MKeys/s")
	b.ReportMetric(eff, "efficiency")
}

func BenchmarkTableIX_MD5(b *testing.B)  { benchTableIX(b, baseline.MD5) }
func BenchmarkTableIX_SHA1(b *testing.B) { benchTableIX(b, baseline.SHA1) }

// ---------------------------------------------------------------------
// Ablations called out in DESIGN.md §5.

// BenchmarkAblationReversal measures the real CPU-kernel speedup of the
// reversal + early-exit optimization (the paper: "a speedup of about 1.25
// in almost all architectures").
func BenchmarkAblationReversal_Optimized(b *testing.B) { benchKernelTier(b, cracker.KernelOptimized) }
func BenchmarkAblationReversal_Plain(b *testing.B)     { benchKernelTier(b, cracker.KernelPlain) }
func BenchmarkAblationReversal_Naive(b *testing.B)     { benchKernelTier(b, cracker.KernelNaive) }

func benchKernelTier(b *testing.B, kind cracker.KernelKind) {
	b.Helper()
	target := cracker.MD5.HashKey([]byte("notfound"))
	k, err := cracker.NewKernel(cracker.MD5, kind, target)
	if err != nil {
		b.Fatal(err)
	}
	space := keyspace.MustNew(keyspace.Alnum, 8, 8, keyspace.PrefixMajor)
	cur := keyspace.NewCursor64(space, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Test(cur.Key())
		if !cur.Next() {
			cur = keyspace.NewCursor64(space, 0)
		}
	}
}

// BenchmarkAblationILP compares the single-stream and two-way interleaved
// kernels on Fermi and Kepler (the §V discussion: ILP pays on Fermi,
// "would be pointless" on Kepler).
func BenchmarkAblationILP(b *testing.B) {
	var block [16]uint32
	_ = md5x.PackKey([]byte("Key4"), &block)
	target := md5x.StateWords(md5x.Sum([]byte("Key4")))
	single := kernel.BuildMD5(kernel.MD5Config{Template: block, Target: target, Reversal: true, EarlyExit: true})
	double := kernel.BuildMD5(kernel.MD5Config{Template: block, Target: target, Reversal: true, EarlyExit: true, Interleave: true})
	var fermiGain, keplerGain float64
	for i := 0; i < b.N; i++ {
		opt := model.AchievedOptions{ILP: -1}
		f1 := model.Achieved(arch.GeForceGT540M, model.FromCompiled(compile.Compile(single, compile.DefaultOptions(arch.CC21))), opt)
		f2 := model.Achieved(arch.GeForceGT540M, model.FromCompiled(compile.Compile(double, compile.DefaultOptions(arch.CC21))), opt)
		k1 := model.Achieved(arch.GeForceGTX660, model.FromCompiled(compile.Compile(single, compile.DefaultOptions(arch.CC30))), opt)
		k2 := model.Achieved(arch.GeForceGTX660, model.FromCompiled(compile.Compile(double, compile.DefaultOptions(arch.CC30))), opt)
		fermiGain = f2 / f1
		keplerGain = k2 / k1
	}
	b.ReportMetric(fermiGain, "fermi-ilp2-gain")
	b.ReportMetric(keplerGain, "kepler-ilp2-gain")
}

// BenchmarkAblationFunnelShift quantifies the cc3.5 funnel-shift uplift
// the paper could not measure for lack of hardware.
func BenchmarkAblationFunnelShift(b *testing.B) {
	_, opt := md5KernelSources()
	var uplift float64
	for i := 0; i < b.N; i++ {
		dev35 := arch.GeForceGTX780
		dev30 := arch.Device{Name: "as-cc30", MPs: dev35.MPs, Cores: dev35.Cores, ClockMHz: dev35.ClockMHz, CC: arch.CC30}
		x35 := model.Theoretical(dev35, model.FromCompiled(compile.Compile(opt, compile.DefaultOptions(arch.CC35))))
		x30 := model.Theoretical(dev30, model.FromCompiled(compile.Compile(opt, compile.DefaultOptions(arch.CC30))))
		uplift = x35 / x30
	}
	b.ReportMetric(uplift, "cc35-uplift")
}

// BenchmarkDispatchGranularity sweeps the chunk-size knob of the cluster
// (the §III tuning-step rationale: too-small intervals collapse
// efficiency).
func BenchmarkDispatchGranularity(b *testing.B) {
	scales := []float64{0.01, 0.1, 1, 4}
	effs := make([]float64, len(scales))
	for i := 0; i < b.N; i++ {
		for j, s := range scales {
			tree := dispatch.PaperNetwork(func(d arch.Device) float64 {
				return baseline.Throughput(baseline.Ours, baseline.MD5, d)
			})
			res, err := dispatch.SimulateCluster(tree, tree.SumThroughput()*20, dispatch.ClusterOptions{RoundScale: s})
			if err != nil {
				b.Fatal(err)
			}
			effs[j] = res.DispatchEfficiency
		}
	}
	b.ReportMetric(effs[0], "eff-scale0.01")
	b.ReportMetric(effs[1], "eff-scale0.1")
	b.ReportMetric(effs[2], "eff-scale1")
	b.ReportMetric(effs[3], "eff-scale4")
}

// ---------------------------------------------------------------------
// End-to-end rates of the real engines (not in the paper's tables but the
// numbers a user of this library sees).

func BenchmarkCPUCrackMD5(b *testing.B) {
	space := keyspace.MustNew(keyspace.Alnum, 6, 6, keyspace.PrefixMajor)
	job := &cracker.Job{Algorithm: cracker.MD5, Target: cracker.MD5.HashKey([]byte("zzzzzz")), Space: space}
	factory, err := job.TestFactory()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	n := uint64(b.N)
	res, err := core.SearchEach(context.Background(), core.KeyspaceFactory(space),
		keyspace.Interval{End: keyspace.IDOf(n)},
		factory, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(res.Tested)/b.Elapsed().Seconds()/1e6, "MKeys/s")
}

func BenchmarkGPUWarpInterpreter(b *testing.B) {
	dev := arch.GeForceGTX660
	e := gpu.NewEngine(dev)
	space := keyspace.MustNew(keyspace.Lower, 4, 4, keyspace.PrefixMajor)
	target := keysearch.HashKey(keysearch.MD5, []byte("zzzz"))
	b.ResetTimer()
	total := uint64(0)
	for i := 0; i < b.N; i++ {
		iv := keyspace.NewInterval(0, 4096)
		res, err := e.Search(context.Background(), space, gpu.MD5, target, iv, gpu.Config{Optimized: true})
		if err != nil {
			b.Fatal(err)
		}
		total += res.Tested
	}
	b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "simulated-keys/s")
}

func BenchmarkMPSimCycleAccuracy(b *testing.B) {
	var block [16]uint32
	_ = md5x.PackKey([]byte("Key4SUFF"), &block)
	target := md5x.StateWords(md5x.Sum([]byte("Key4SUFF")))
	src := kernel.BuildMD5(kernel.MD5Config{Template: block, Target: target, Reversal: true, EarlyExit: true})
	prog := compile.Compile(src, compile.DefaultOptions(arch.CC30)).Program
	var cyc float64
	for i := 0; i < b.N; i++ {
		res, err := gpu.SimulateMP(prog, arch.CC30, 64, 1)
		if err != nil {
			b.Fatal(err)
		}
		cyc = res.CyclesPerCandidate(1)
	}
	b.ReportMetric(cyc, "cycles/hash")
}

func BenchmarkCPUCrackSHA1(b *testing.B) {
	space := keyspace.MustNew(keyspace.Alnum, 6, 6, keyspace.PrefixMajor)
	job := &cracker.Job{Algorithm: cracker.SHA1, Target: cracker.SHA1.HashKey([]byte("zzzzzz")), Space: space}
	factory, err := job.TestFactory()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	n := uint64(b.N)
	res, err := core.SearchEach(context.Background(), core.KeyspaceFactory(space),
		keyspace.Interval{End: keyspace.IDOf(n)},
		factory, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(res.Tested)/b.Elapsed().Seconds()/1e6, "MKeys/s")
}

// BenchmarkAblationKeysPerThread sweeps the per-thread amortization knob
// of §IV/§V ("each thread should produce a certain quantity of useful
// work per kernel call").
func BenchmarkAblationKeysPerThread(b *testing.B) {
	_, opt := md5KernelSources()
	prof := model.FromCompiled(compile.Compile(opt, compile.DefaultOptions(arch.CC30)))
	dev := arch.GeForceGTX660
	kpts := []int{1, 16, 256, 4096}
	out := make([]float64, len(kpts))
	for i := 0; i < b.N; i++ {
		for j, kpt := range kpts {
			out[j] = model.Achieved(dev, prof, model.AchievedOptions{ILP: -1, KeysPerThread: kpt}) / 1e6
		}
	}
	b.ReportMetric(out[0], "MKeys-kpt1")
	b.ReportMetric(out[1], "MKeys-kpt16")
	b.ReportMetric(out[2], "MKeys-kpt256")
	b.ReportMetric(out[3], "MKeys-kpt4096")
}
