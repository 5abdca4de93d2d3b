// Audit: a synthetic password-auditing session, the workflow the paper's
// introduction motivates ("in some working environments, it is a standard
// procedure to make periodic cracking tests, called auditing sessions").
//
// A small credential store with per-user random salts is attacked two
// ways, demonstrating the introduction's point about salting:
//
//  1. a precomputed lookup table — defeated by the salts;
//
//  2. salted brute force — cracks the short passwords, salt folded into
//     the kernel (the search space does not grow: the salt is known).
//
//     go run ./examples/audit
package main

import (
	"context"
	"fmt"
	"log"

	"keysearch"
)

type row struct {
	user   string
	salt   keysearch.Salt
	digest []byte
}

func main() {
	store := makeStore()

	fmt.Println("== attempt 1: precomputed lookup table (unsalted) ==")
	lookupAttempt(store)

	fmt.Println("\n== attempt 2: salted brute force ==")
	bruteForceAttempt(store)
}

// makeStore builds the synthetic credential store: salted MD5, per-user
// random-ish salts, a mix of human-style and random passwords.
func makeStore() []row {
	creds := []struct{ user, password, salt string }{
		{"alice", "cat", "x1!k"},     // in the lookup table's space
		{"bob", "dr@g0n", "Qp0#"},    // outside the brute-force space
		{"carol", "wq7f", "Zr$9"},    // short random: brute-force target
		{"dave", "password", "mm3&"}, // the classic, too long to brute-force
	}
	store := make([]row, len(creds))
	for i, c := range creds {
		salt := keysearch.Salt{Suffix: []byte(c.salt)}
		store[i] = row{
			user:   c.user,
			salt:   salt,
			digest: keysearch.HashKey(keysearch.MD5, salt.Apply(nil, []byte(c.password))),
		}
	}
	return store
}

// lookupAttempt precomputes the unsalted digest of every key of a small
// space and looks each stored digest up.
func lookupAttempt(store []row) {
	space, err := keysearch.NewSpace(keysearch.Lowercase, 1, 3)
	if err != nil {
		log.Fatal(err)
	}
	table := make(map[string][]byte)
	size, _ := space.Size64()
	for id := uint64(0); id < size; id++ {
		key := space.Key64(id)
		table[string(keysearch.HashKey(keysearch.MD5, key))] = key
	}
	fmt.Printf("precomputed %d digests\n", len(table))
	hits := 0
	for _, r := range store {
		if key, ok := table[string(r.digest)]; ok {
			fmt.Printf("  %s: %q ?!\n", r.user, key)
			hits++
		}
	}
	fmt.Printf("hits: %d of %d — salting makes every stored digest miss\n", hits, len(store))
}

// bruteForceAttempt searches a space with each user's public salt folded
// into the kernel.
func bruteForceAttempt(store []row) {
	space, err := keysearch.NewSpace(keysearch.Lowercase+keysearch.DigitsSet, 1, 4)
	if err != nil {
		log.Fatal(err)
	}
	cracked := 0
	for _, r := range store {
		res, err := keysearch.CrackSalted(context.Background(), keysearch.MD5,
			r.digest, r.salt, space, keysearch.Options{})
		if err != nil {
			log.Fatal(err)
		}
		if len(res.Solutions) > 0 {
			fmt.Printf("  %s: %q (brute force, %d keys tested)\n", r.user, res.Solutions[0], res.Tested)
			cracked++
		} else {
			fmt.Printf("  %s: survived (%d keys tested)\n", r.user, res.Tested)
		}
	}
	fmt.Printf("audit complete: %d of %d accounts cracked\n", cracked, len(store))
}
