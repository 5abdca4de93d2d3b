package keysearch

import (
	"context"
	"time"

	"keysearch/internal/arch"
	"keysearch/internal/baseline"
	"keysearch/internal/core"
	"keysearch/internal/cracker"
	"keysearch/internal/dispatch"
	"keysearch/internal/gpu"
	"keysearch/internal/keyspace"
)

// Coarse-grain dispatch types (Section III of the paper).
type (
	// Worker is a computing resource a dispatcher drives.
	Worker = dispatch.Worker
	// Dispatcher balances intervals across workers and composes into trees.
	Dispatcher = dispatch.Dispatcher
	// DispatchOptions tunes a dispatcher.
	DispatchOptions = dispatch.Options
	// DispatchReport is a dispatcher's search outcome.
	DispatchReport = dispatch.Report
	// Tuning is a worker's tuning-step result (n_j, X_j).
	Tuning = core.Tuning
	// ClusterResult reports a virtual-time cluster run (Table IX).
	ClusterResult = dispatch.ClusterResult
	// ClusterOptions tunes a virtual-time cluster run.
	ClusterOptions = dispatch.ClusterOptions
	// SimTree is a virtual-time dispatch tree.
	SimTree = dispatch.SimTree
)

// NewDispatcher builds a dispatcher over workers; dispatchers are
// themselves Workers, so trees of any shape compose.
func NewDispatcher(name string, opts DispatchOptions, workers ...Worker) *Dispatcher {
	return dispatch.NewDispatcher(name, opts, workers...)
}

// NewCPUWorker wraps a cracking job as a local multicore worker.
func NewCPUWorker(name string, job *Job, goroutines int) Worker {
	return dispatch.NewLocalWorker(name, job, goroutines)
}

// Device is a modeled GPU from the paper's Table VII catalog.
type Device = arch.Device

// Devices returns the Table VII catalog (five GPUs), in table order.
func Devices() []Device { return append([]Device(nil), arch.Catalog...) }

// DeviceByName finds a modeled device ("660", "GeForce GTX 660", ...).
func DeviceByName(name string) (Device, error) { return arch.DeviceByName(name) }

// GPUEngine is a simulated GPU device: candidates run through the SIMT
// warp interpreter on the per-architecture compiled kernel, and time is
// accounted by the throughput model.
type GPUEngine = gpu.Engine

// NewGPUEngine builds an engine for a modeled device.
func NewGPUEngine(dev Device) *GPUEngine { return gpu.NewEngine(dev) }

// NewGPUWorker exposes a simulated GPU as a dispatch worker: searches run
// functionally (real matches) while the tuning step answers from the
// device model. The space must use the prefix-major order.
func NewGPUWorker(name string, dev Device, job *Job) Worker {
	engine := gpu.NewEngine(dev)
	alg := gpu.MD5
	if job.Algorithm == cracker.SHA1 {
		alg = gpu.SHA1
	}
	cfg := gpu.Config{Optimized: job.Kind == cracker.KernelOptimized}
	return &dispatch.FuncWorker{
		WorkerName: name,
		TuneFunc: func(ctx context.Context) (core.Tuning, error) {
			x := engine.ModelThroughput(alg, cfg)
			// n_j for a 90% target with the engine's dispatch overhead.
			o := gpu.DefaultOverhead.Seconds()
			return core.Tuning{MinBatch: uint64(x*o*9) + 1, Throughput: x}, nil
		},
		SearchFunc: func(ctx context.Context, iv keyspace.Interval) (*dispatch.Report, error) {
			res, err := engine.Search(ctx, job.Space, alg, job.Target, iv, cfg)
			if err != nil {
				return nil, err
			}
			return &dispatch.Report{
				Found:   res.Found,
				Tested:  res.Tested,
				Elapsed: time.Duration(res.SimSeconds * float64(time.Second)),
			}, nil
		},
	}
}

// PaperNetwork builds the paper's four-node, five-GPU evaluation tree
// (Section VI-A) with per-device sustained throughputs from the model.
func PaperNetwork(alg Algorithm) *SimTree {
	balg := baseline.MD5
	if alg == SHA1 {
		balg = baseline.SHA1
	}
	return dispatch.PaperNetwork(func(dev arch.Device) float64 {
		return baseline.Throughput(baseline.Ours, balg, dev)
	})
}

// SimulateCluster runs an exhaustive search of totalKeys over a dispatch
// tree in virtual time (the Table IX experiment).
func SimulateCluster(tree *SimTree, totalKeys float64, opt ClusterOptions) (*ClusterResult, error) {
	return dispatch.SimulateCluster(tree, totalKeys, opt)
}

// TheoreticalNetworkThroughput returns the sum of the per-device
// theoretical peaks over the paper network — the Table IX "theoretical"
// column.
func TheoreticalNetworkThroughput(alg Algorithm) float64 {
	balg := baseline.MD5
	if alg == SHA1 {
		balg = baseline.SHA1
	}
	var sum float64
	for _, dev := range arch.Catalog {
		sum += baseline.Theoretical(balg, dev)
	}
	return sum
}
