package keysearch_test

import (
	"context"
	"fmt"

	"keysearch"
)

// ExampleCrackHex inverts an MD5 digest over a small key space.
func ExampleCrackHex() {
	space, _ := keysearch.NewSpace(keysearch.Lowercase, 1, 3)
	res, _ := keysearch.CrackHex(context.Background(), keysearch.MD5,
		"900150983cd24fb0d6963f7d28e17f72", space) // md5("abc")
	fmt.Printf("%s\n", res.Solutions[0])
	// Output: abc
}

// ExampleNewSpace shows the paper's prefix-major enumeration (equation 4):
// the first character changes fastest, which is what lets a GPU thread
// iterate candidates while its packed suffix stays constant.
func ExampleNewSpace() {
	space, _ := keysearch.NewSpace("abc", 1, 2)
	for id := uint64(0); id < 6; id++ {
		key := space.Key64(id)
		fmt.Printf("%s ", key)
	}
	fmt.Println()
	// Output: a b c aa ba ca
}

// ExampleSalt shows that salting leaves brute force intact: the salt is
// public, so it folds into the kernel without growing the search space.
func ExampleSalt() {
	salt := keysearch.Salt{Suffix: []byte("NaCl")}
	digest := keysearch.HashKey(keysearch.MD5, []byte("catNaCl"))
	space, _ := keysearch.NewSpace(keysearch.Lowercase, 1, 3)
	res, _ := keysearch.CrackSalted(context.Background(), keysearch.MD5, digest, salt, space, keysearch.Options{})
	fmt.Printf("%s\n", res.Solutions[0])
	// Output: cat
}

// ExampleSimulateCluster runs the paper's Table IX experiment: the
// five-GPU network searching in virtual time.
func ExampleSimulateCluster() {
	tree := keysearch.PaperNetwork(keysearch.MD5)
	res, _ := keysearch.SimulateCluster(tree, 1e11, keysearch.ClusterOptions{})
	fmt.Printf("dispatch efficiency > 0.95: %v\n", res.DispatchEfficiency > 0.95)
	// Output: dispatch efficiency > 0.95: true
}
