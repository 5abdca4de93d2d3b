package dispatch

import (
	"math"
	"testing"

	"keysearch/internal/arch"
	"keysearch/internal/sim"
)

// tableVIIIMD5 is the paper's measured single-GPU MD5 throughput
// (Table VIII, "our approach"), in keys/s.
func tableVIIIMD5(dev arch.Device) float64 {
	m := map[string]float64{
		"GeForce 8600M GT":     71e6,
		"GeForce 8800 GTS 512": 480e6,
		"GeForce GT 540M":      214e6,
		"GeForce GTX 550 Ti":   654e6,
		"GeForce GTX 660":      1841e6,
	}
	return m[dev.Name]
}

func TestPaperNetworkShape(t *testing.T) {
	tree := PaperNetwork(tableVIIIMD5)
	leaves := tree.Leaves()
	if len(leaves) != 5 {
		t.Fatalf("leaves = %d, want 5", len(leaves))
	}
	sum := tree.SumThroughput()
	want := (71.0 + 480 + 214 + 654 + 1841) * 1e6
	if math.Abs(sum-want) > 1 {
		t.Errorf("sum throughput = %v, want %v", sum, want)
	}
}

// TestClusterNearPerfectParallelism reproduces the Table IX observation:
// with large enough work, the network throughput approaches the sum of the
// single-device throughputs ("an almost perfect parallelism").
func TestClusterNearPerfectParallelism(t *testing.T) {
	tree := PaperNetwork(tableVIIIMD5)
	// ~100 seconds of aggregate work, as the paper's long-running searches.
	total := 3.26e9 * 100
	res, err := SimulateCluster(tree, total, ClusterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.DispatchEfficiency < 0.95 || res.DispatchEfficiency > 1.0001 {
		t.Errorf("dispatch efficiency = %.3f, want > 0.95", res.DispatchEfficiency)
	}
	// Work conservation: per-node sums equal the total.
	var sum float64
	for _, n := range res.PerNode {
		sum += n
	}
	if math.Abs(sum-total)/total > 1e-9 {
		t.Errorf("per-node sum %v != total %v", sum, total)
	}
	// Node shares follow throughput shares within a few percent.
	for _, leaf := range tree.Leaves() {
		wantShare := leaf.Throughput / res.SumThroughput
		gotShare := res.PerNode[leaf.Name] / total
		if math.Abs(gotShare-wantShare) > 0.05 {
			t.Errorf("%s share = %.3f, want ≈ %.3f", leaf.Name, gotShare, wantShare)
		}
	}
}

// TestClusterEfficiencyDropsWithTinyWork: when the total work is too small
// to amortize per-chunk overheads, efficiency must collapse — the reason
// the paper's pattern requires "arbitrarily large" intervals.
func TestClusterEfficiencyDropsWithTinyWork(t *testing.T) {
	tree := PaperNetwork(tableVIIIMD5)
	res, err := SimulateCluster(tree, 3.26e9*0.01, ClusterOptions{}) // ~10ms of work
	if err != nil {
		t.Fatal(err)
	}
	if res.DispatchEfficiency > 0.8 {
		t.Errorf("tiny-work efficiency = %.3f, want < 0.8", res.DispatchEfficiency)
	}
}

// TestClusterGranularitySweep: larger round scales must not reduce
// efficiency for uniform nodes, and minuscule chunks must hurt.
func TestClusterGranularitySweep(t *testing.T) {
	tree := PaperNetwork(tableVIIIMD5)
	total := 3.26e9 * 30
	effAt := func(scale float64) float64 {
		res, err := SimulateCluster(tree, total, ClusterOptions{RoundScale: scale})
		if err != nil {
			t.Fatal(err)
		}
		return res.DispatchEfficiency
	}
	small := effAt(0.01)
	normal := effAt(1)
	big := effAt(4)
	if small >= normal {
		t.Errorf("tiny chunks (%.3f) should underperform tuned chunks (%.3f)", small, normal)
	}
	if big < normal*0.97 {
		t.Errorf("larger chunks (%.3f) should not collapse vs tuned (%.3f)", big, normal)
	}
}

// TestClusterWholeClusterDeath: a tree whose every device is dead (zero
// throughput) can never finish, and must report the stall as an error
// rather than a bogus result.
func TestClusterWholeClusterDeath(t *testing.T) {
	tree := PaperNetwork(func(arch.Device) float64 { return 0 })
	if _, err := SimulateCluster(tree, 3.26e9*30, ClusterOptions{}); err == nil {
		t.Fatal("want stall error when no device can take work")
	}
}

// TestClusterSingleLeaf: a tree of one node must match its own throughput.
func TestClusterSingleLeaf(t *testing.T) {
	leaf := Leaf(SimNode{Name: "only", Throughput: 1e9, Overhead: 1e-3}, sim.Link{})
	res, err := SimulateCluster(leaf, 1e10, ClusterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.DispatchEfficiency < 0.98 {
		t.Errorf("single leaf efficiency = %.3f", res.DispatchEfficiency)
	}
}

// TestClusterHighLatencyLinks: raising link latency by orders of magnitude
// must cost efficiency unless chunks grow to compensate.
func TestClusterHighLatencyLinks(t *testing.T) {
	slowLink := sim.Link{Latency: 0.25, Bandwidth: 1e6} // satellite-grade
	mk := func() *SimTree {
		return Branch("root", sim.Link{},
			Leaf(SimNode{Name: "a", Throughput: 1e9, Overhead: 2e-3}, slowLink),
			Leaf(SimNode{Name: "b", Throughput: 1e9, Overhead: 2e-3}, slowLink),
		)
	}
	total := 2e9 * 20.0
	base, err := SimulateCluster(mk(), total, ClusterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// The tuning step already grows chunks to cover the link round trip,
	// so efficiency should still be respectable.
	if base.DispatchEfficiency < 0.8 {
		t.Errorf("tuned high-latency efficiency = %.3f, want >= 0.8", base.DispatchEfficiency)
	}
	// But deliberately tiny chunks on the same links are disastrous.
	crippled, err := SimulateCluster(mk(), total, ClusterOptions{RoundScale: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	if crippled.DispatchEfficiency >= base.DispatchEfficiency {
		t.Errorf("tiny chunks on slow links (%.3f) should underperform (%.3f)",
			crippled.DispatchEfficiency, base.DispatchEfficiency)
	}
}

func TestSimulateClusterRejectsZeroWork(t *testing.T) {
	if _, err := SimulateCluster(PaperNetwork(tableVIIIMD5), 0, ClusterOptions{}); err == nil {
		t.Error("want error for zero keys")
	}
}
