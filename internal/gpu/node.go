package gpu

import (
	"context"
	"fmt"

	"keysearch/internal/keyspace"
)

// Node models a host machine holding several GPUs — node B of the paper's
// evaluation network has a GTX 660 and a GTX 550 Ti behind one dispatcher
// process. A search interval is split across the devices proportionally to
// their modeled throughput (the intra-host instance of the balancing rule
// N_j = N_max · X_j / X_max), and the node finishes when its slowest
// device does.
type Node struct {
	name    string
	engines []*Engine
}

// NewNode builds a host node over the given engines.
func NewNode(name string, engines ...*Engine) (*Node, error) {
	if len(engines) == 0 {
		return nil, fmt.Errorf("gpu: node %s has no devices", name)
	}
	return &Node{name: name, engines: engines}, nil
}

// Name identifies the node.
func (n *Node) Name() string { return n.name }

// Engines returns the node's devices.
func (n *Node) Engines() []*Engine { return n.engines }

// ModelThroughput returns the summed sustained throughput of the devices.
func (n *Node) ModelThroughput(alg Algorithm, cfg Config) float64 {
	var sum float64
	for _, e := range n.engines {
		sum += e.ModelThroughput(alg, cfg)
	}
	return sum
}

// Search splits the interval across the devices proportionally to their
// modeled throughput and runs each functionally. The simulated time is the
// maximum of the per-device times (they run concurrently on the host);
// found keys and counters are merged.
func (n *Node) Search(ctx context.Context, space *keyspace.Space, alg Algorithm, target []byte, iv keyspace.Interval, cfg Config) (*Result, error) {
	total, ok := iv.Len64()
	if !ok {
		return nil, fmt.Errorf("gpu: interval too large for functional simulation: %v", iv)
	}
	sum := n.ModelThroughput(alg, cfg)
	merged, start, cum := &Result{}, iv.Start, 0.0
	for i, e := range n.engines {
		// Device i searches up to the fraction cum/sum of the interval,
		// the last one to its end, so the parts tile it.
		cum += e.ModelThroughput(alg, cfg)
		upTo, _ := iv.Take(uint64(float64(total) * cum / sum))
		if i == len(n.engines)-1 {
			upTo = iv
		}
		part := keyspace.Interval{Start: start, End: upTo.End}
		if start = upTo.End; part.Empty() {
			continue
		}
		res, err := e.Search(ctx, space, alg, target, part, cfg)
		if err != nil {
			return nil, fmt.Errorf("gpu: node %s device %s: %w", n.name, e.Device().Name, err)
		}
		merged.Found = append(merged.Found, res.Found...)
		merged.Tested += res.Tested
		merged.Warps += res.Warps
		merged.WarpInstructions += res.WarpInstructions
		merged.Recompiles += res.Recompiles
		merged.Launches += res.Launches
		if res.SimSeconds > merged.SimSeconds {
			merged.SimSeconds = res.SimSeconds // devices run concurrently
		}
	}
	merged.Throughput = n.ModelThroughput(alg, cfg)
	return merged, nil
}
