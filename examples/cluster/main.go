// Cluster: reproduce the paper's evaluation network (Section VI) twice —
// first functionally, cracking a real digest across simulated GPU workers
// plus a CPU worker through the hierarchical dispatcher; then at paper
// scale in virtual time, regenerating the Table IX throughput and
// efficiency numbers.
//
//	go run ./examples/cluster
package main

import (
	"context"
	"fmt"
	"log"
	"sort"

	"keysearch"
)

func main() {
	functionalCrack()
	fmt.Println()
	tableIXScale()
}

// functionalCrack drives a heterogeneous dispatcher tree: node B holds the
// two fast simulated GPUs, node C the slow mobile part, the root adds a
// real CPU worker — the shape of the paper's deliberately unbalanced
// network, with every candidate actually hashed.
func functionalCrack() {
	space, err := keysearch.NewSpace(keysearch.Lowercase, 1, 3)
	if err != nil {
		log.Fatal(err)
	}
	password := []byte("key")
	job := &keysearch.Job{
		Algorithm: keysearch.MD5,
		Target:    keysearch.HashKey(keysearch.MD5, password),
		Space:     space,
	}

	dev660, _ := keysearch.DeviceByName("660")
	dev550, _ := keysearch.DeviceByName("550Ti")
	dev8600, _ := keysearch.DeviceByName("8600M")

	nodeB := keysearch.NewDispatcher("node-B", keysearch.DispatchOptions{},
		keysearch.NewGPUWorker("B/gtx660", dev660, job),
		keysearch.NewGPUWorker("B/gtx550ti", dev550, job),
	)
	nodeC := keysearch.NewDispatcher("node-C", keysearch.DispatchOptions{},
		keysearch.NewGPUWorker("C/8600m", dev8600, job),
	)
	root := keysearch.NewDispatcher("node-A", keysearch.DispatchOptions{MaxSolutions: 1},
		keysearch.NewCPUWorker("A/cpu", job, 0),
		nodeB, nodeC,
	)

	fmt.Printf("functional cluster crack over %v keys\n", space.Size())
	rep, err := root.Search(context.Background(), space.Whole())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("cracked: %q (tested %d keys)\n", rep.Found, rep.Tested)
}

// tableIXScale runs the exact Table IX experiment: the five-GPU network
// searching at full modeled speed in virtual time.
func tableIXScale() {
	for _, alg := range []keysearch.Algorithm{keysearch.MD5, keysearch.SHA1} {
		tree := keysearch.PaperNetwork(alg)
		// One virtual minute of aggregate work.
		total := tree.SumThroughput() * 60
		res, err := keysearch.SimulateCluster(tree, total, keysearch.ClusterOptions{})
		if err != nil {
			log.Fatal(err)
		}
		theo := keysearch.TheoreticalNetworkThroughput(alg)
		fmt.Printf("%s network: %.1f MKey/s of %.1f theoretical (efficiency %.3f; paper: %s)\n",
			alg, res.Throughput/1e6, theo/1e6, res.Throughput/theo,
			map[keysearch.Algorithm]string{keysearch.MD5: "0.852", keysearch.SHA1: "0.898"}[alg])

		// Per-node share of the work, largest first.
		type share struct {
			name string
			frac float64
		}
		var shares []share
		for name, keys := range res.PerNode {
			shares = append(shares, share{name, keys / res.Keys})
		}
		sort.Slice(shares, func(i, j int) bool { return shares[i].frac > shares[j].frac })
		for _, s := range shares {
			fmt.Printf("  %-22s %5.1f%%\n", s.name, 100*s.frac)
		}
	}
}
