package dispatch

import (
	"fmt"
	"math"

	"keysearch/internal/core"
	"keysearch/internal/sim"
)

// SimNode models a leaf computing node of the virtual-time cluster: a GPU
// whose sustained throughput comes from the analytic model.
type SimNode struct {
	Name string
	// Throughput is the sustained key-test rate in keys/s.
	Throughput float64
	// Overhead is the fixed cost per dispatched chunk in seconds (kernel
	// launches, host transfers).
	Overhead float64
}

// SimTree is a dispatch tree mirroring §III's hierarchical topology: a
// leaf carries a SimNode, an inner node dispatches to children. Links
// connect each tree node to its parent.
type SimTree struct {
	Name     string
	Node     *SimNode   // leaf payload (nil for dispatchers)
	Children []*SimTree // dispatcher payload (empty for leaves)
	Link     sim.Link   // link to the parent
	// Overhead is the dispatcher's own per-round bookkeeping in seconds.
	Overhead float64
}

// Leaf builds a leaf tree node.
func Leaf(node SimNode, link sim.Link) *SimTree {
	n := node
	return &SimTree{Name: node.Name, Node: &n, Link: link}
}

// Branch builds a dispatcher tree node.
func Branch(name string, link sim.Link, children ...*SimTree) *SimTree {
	return &SimTree{Name: name, Children: children, Link: link, Overhead: 1e-4}
}

// SumThroughput returns the sum of the leaf throughputs — the "roughly
// equal to the sum of the throughputs of the single devices" yardstick of
// Table IX.
func (t *SimTree) SumThroughput() float64 {
	if t.Node != nil {
		return t.Node.Throughput
	}
	var s float64
	for _, c := range t.Children {
		s += c.SumThroughput()
	}
	return s
}

// Leaves returns the leaf nodes in depth-first order.
func (t *SimTree) Leaves() []*SimNode {
	if t.Node != nil {
		return []*SimNode{t.Node}
	}
	var out []*SimNode
	for _, c := range t.Children {
		out = append(out, c.Leaves()...)
	}
	return out
}

const (
	// targetEfficiency sizes the chunks: a node's minimum batch is what
	// keeps its overhead below (1 - targetEfficiency) of its time.
	targetEfficiency = 0.98
	// messageBytes is the size of a work-assignment or result message on
	// the links (the paper: "only a very small amount of data must be
	// scattered" — an interval is two integers).
	messageBytes = 64
)

// ClusterOptions tunes the virtual-time cluster run.
type ClusterOptions struct {
	// RoundScale multiplies chunk sizes (same knob as Options.RoundScale).
	// 0 = 1.
	RoundScale float64
}

// ClusterResult reports a virtual-time cluster search (the Table IX rows).
type ClusterResult struct {
	// Keys is the number of key tests completed.
	Keys float64
	// SimSeconds is the virtual wall-clock duration.
	SimSeconds float64
	// Throughput is Keys / SimSeconds.
	Throughput float64
	// SumThroughput is the sum of the per-device sustained throughputs.
	SumThroughput float64
	// DispatchEfficiency is Throughput / SumThroughput — what the
	// coarse-grain dispatch loses on top of the per-device limits.
	DispatchEfficiency float64
	// PerNode is the number of keys each leaf tested.
	PerNode map[string]float64
}

// simActor is the runtime state of one tree node within the simulation.
type simActor struct {
	tree     *SimTree
	children []*simActor
	tuning   core.Tuning
	chunk    float64 // chunk size this actor requests from its parent

	// Dispatcher state.
	pool        float64 // unassigned keys held
	active      int     // children with an outstanding assignment
	currentDone func()  // completion callback of the current assignment

	res   *ClusterResult
	scale float64 // ClusterOptions.RoundScale
	eng   *sim.Engine
}

// SimulateCluster runs an exhaustive search of totalKeys key tests over
// the dispatch tree in virtual time. Nothing is hashed — the simulation
// models time, work conservation and link traffic; per-node throughputs
// come from the device model. This is the engine behind the Table IX
// reproduction and the granularity benchmark. Faults and a changing
// membership are rehearsed over the real job service by fleetsim.
func SimulateCluster(tree *SimTree, totalKeys float64, opt ClusterOptions) (*ClusterResult, error) {
	if totalKeys <= 0 {
		return nil, fmt.Errorf("dispatch: totalKeys must be positive")
	}
	if opt.RoundScale == 0 {
		opt.RoundScale = 1
	}

	eng := sim.NewEngine()
	res := &ClusterResult{
		SumThroughput: tree.SumThroughput(),
		PerNode:       make(map[string]float64),
	}

	root := buildActor(tree, res, opt.RoundScale, eng)
	root.tune()

	finished := false
	root.assign(totalKeys, func() { finished = true })
	end := eng.Run()
	if !finished {
		return nil, fmt.Errorf("dispatch: cluster simulation stalled at t=%.3fs with work outstanding", end)
	}

	res.SimSeconds = end
	res.Keys = totalKeys
	if end > 0 {
		res.Throughput = totalKeys / end
	}
	if res.SumThroughput > 0 {
		res.DispatchEfficiency = res.Throughput / res.SumThroughput
	}
	return res, nil
}

func buildActor(t *SimTree, res *ClusterResult, scale float64, eng *sim.Engine) *simActor {
	a := &simActor{tree: t, res: res, scale: scale, eng: eng}
	for _, c := range t.Children {
		a.children = append(a.children, buildActor(c, res, scale, eng))
	}
	return a
}

// tune computes, bottom-up, each actor's tuning (X_j, n_j) and the chunk
// size it will request: leaves derive n_j from the efficiency target and
// their fixed overhead, dispatchers aggregate their children per §III.
func (a *simActor) tune() {
	if a.tree.Node != nil {
		n := a.tree.Node
		// Efficiency e at batch b: (b/X) / (o + b/X) >= e  =>
		// b >= X·o·e/(1-e), with o covering the chunk overhead plus the
		// scatter/gather round trip.
		e := targetEfficiency
		o := n.Overhead + 2*a.tree.Link.TransferTime(messageBytes)
		minBatch := n.Throughput * o * e / (1 - e)
		a.tuning = core.Tuning{MinBatch: uint64(minBatch) + 1, Throughput: n.Throughput}
		a.chunk = math.Ceil(minBatch+1) * a.scale
		if a.chunk < 1 {
			a.chunk = 1
		}
		return
	}
	ts := make([]core.Tuning, len(a.children))
	for i, c := range a.children {
		c.tune()
		ts[i] = c.tuning
	}
	// Children chunks follow the balancing rule N_j = N_max · X_j / X_max.
	balanced := core.Balance(ts)
	for i, c := range a.children {
		c.chunk = float64(balanced[i]) * a.scale
		if c.chunk < 1 && c.tuning.Throughput > 0 {
			c.chunk = 1
		}
	}
	a.tuning = core.Aggregate(ts)
	a.chunk = 0
	for _, c := range a.children {
		a.chunk += c.chunk
	}
	// The subtree's round must also amortize the dispatcher's own
	// scatter/gather path, not just the leaves' overheads: grow the
	// children's chunks proportionally if the sum falls short. This is
	// §III's observation that N_node "could be arbitrarily increased to
	// minimize the overhead caused by the dispatch and merge steps".
	e := targetEfficiency
	oDisp := a.tree.Overhead + 2*a.tree.Link.TransferTime(messageBytes)
	minRound := a.tuning.Throughput * oDisp * e / (1 - e)
	if a.chunk > 0 && a.chunk < minRound {
		f := minRound / a.chunk
		for _, c := range a.children {
			c.chunk *= f
		}
		a.chunk = minRound
	}
	if a.tuning.MinBatch < uint64(a.chunk) {
		a.tuning.MinBatch = uint64(a.chunk)
	}
}

// assign hands the actor an amount of work; done fires (after the gather
// message) when it completes. An actor holds at most one assignment.
func (a *simActor) assign(keys float64, done func()) {
	if a.tree.Node != nil {
		a.computeLeaf(keys, done)
		return
	}
	a.pool += keys
	a.currentDone = done
	a.distribute()
	a.maybeFinish()
}

// distribute scatters one round of pool work across the children with
// a nonzero throughput, split proportionally to their tuned throughputs —
// the paper's rule N_j = N_max · X_j / X_max verbatim. A round is at most
// the sum of the children's balanced chunks (times RoundScale), so the
// dispatcher gathers periodically rather than handing out the whole space
// at once; because the shares are proportional, the children finish
// together and no straggler tail builds up inside a round.
func (a *simActor) distribute() {
	if a.pool <= 0 || a.active > 0 {
		return // nothing left, or a round is in flight and its barrier re-triggers us
	}
	var liveX, roundCap float64
	for _, c := range a.children {
		if c.tuning.Throughput == 0 {
			continue
		}
		liveX += c.tuning.Throughput
		roundCap += c.chunk
	}
	if liveX == 0 {
		return // nothing can take work; SimulateCluster reports the stall
	}
	// Absorb small overages into the current round: chunk sizes are
	// minimums for efficiency, so running a round up to 50% larger is
	// cheaper than paying a full barrier for the residue afterwards.
	round := a.pool
	if round > roundCap*1.5 {
		round = roundCap
	}
	a.pool -= round
	for _, c := range a.children {
		if c.tuning.Throughput == 0 {
			continue
		}
		share := round * c.tuning.Throughput / liveX
		if share <= 0 {
			continue
		}
		a.active++
		child := c
		// Scatter: the assignment crosses the child's link; the child's
		// completion (gather) fires the callback back here.
		child.tree.Link.Send(a.eng, messageBytes, func() {
			child.assign(share, func() {
				a.active--
				a.distribute()
				a.maybeFinish()
			})
		})
	}
}

// maybeFinish completes the dispatcher's current assignment when the pool
// is drained and every child is idle.
func (a *simActor) maybeFinish() {
	if a.active > 0 || a.currentDone == nil || a.pool > 0 {
		return
	}
	finish := a.currentDone
	a.currentDone = nil
	// Gather: the dispatcher's bookkeeping overhead plus the completion
	// message crossing its own link.
	a.eng.Schedule(a.tree.Overhead, func() {
		a.tree.Link.Send(a.eng, messageBytes, finish)
	})
}

// computeLeaf models a leaf executing a chunk.
func (a *simActor) computeLeaf(keys float64, done func()) {
	n := a.tree.Node
	a.eng.Schedule(n.Overhead+keys/n.Throughput, func() {
		a.res.PerNode[n.Name] += keys
		// Gather: the result message crosses the leaf's link back to the
		// parent.
		a.tree.Link.Send(a.eng, messageBytes, done)
	})
}
