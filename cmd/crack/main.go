// Command crack is the local password cracker: it inverts an MD5 or SHA1
// digest by exhaustive search over a charset/length key space, on all CPU
// cores, with the optimized kernels (packed single-block hashing, MD5
// target reversal, early exit).
//
// Usage:
//
//	crack -alg md5 -hash 900150983cd24fb0d6963f7d28e17f72 \
//	      -charset abcdefghijklmnopqrstuvwxyz -min 1 -max 4
//
//	crack -alg md5 -hash <hex> -salt-suffix NaCl   # salted target
//	crack -alg sha1 -hash <hex> -kernel plain -all  # every preimage, plain kernel
package main

import (
	"context"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"time"

	"keysearch"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	switch err := run(ctx, os.Args[1:], os.Stdout); {
	case err == nil, errors.Is(err, flag.ErrHelp):
	case errors.Is(err, errUsage):
		os.Exit(2)
	default:
		fatal(err)
	}
}

// errUsage is a command line run cannot use; it has printed why.
var errUsage = errors.New("usage")

// run parses the command line in args, runs the search it names and
// reports it to stdout.
func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("crack", flag.ContinueOnError)
	var (
		algName    = fs.String("alg", "md5", "hash algorithm: md5 or sha1")
		hashHex    = fs.String("hash", "", "hex digest to invert (required)")
		charset    = fs.String("charset", keysearch.Lowercase, "candidate charset")
		minLen     = fs.Int("min", 1, "minimum key length")
		maxLen     = fs.Int("max", 5, "maximum key length")
		workers    = fs.Int("workers", 0, "goroutines (0 = all cores)")
		kernelName = fs.String("kernel", "optimized", "kernel tier: optimized, plain, naive")
		saltPre    = fs.String("salt-prefix", "", "salt prepended to candidates")
		saltSuf    = fs.String("salt-suffix", "", "salt appended to candidates")
		all        = fs.Bool("all", false, "find all preimages instead of stopping at the first")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return errUsage
	}
	if *hashHex == "" {
		fs.Usage()
		return errUsage
	}
	alg, err := keysearch.ParseAlgorithm(*algName)
	if err != nil {
		return err
	}
	raw, err := digestFromHex(alg, *hashHex)
	if err != nil {
		return err
	}
	opt := keysearch.Options{Workers: *workers}
	if *all {
		opt.MaxSolutions = -1
	}
	kind, err := parseKernel(*kernelName)
	if err != nil {
		return err
	}
	space, err := keysearch.NewSpace(*charset, *minLen, *maxLen)
	if err != nil {
		return err
	}
	job := &keysearch.Job{Algorithm: alg, Target: raw, Space: space, Kind: kind,
		Salt: keysearch.Salt{Prefix: []byte(*saltPre), Suffix: []byte(*saltSuf)}}
	fmt.Fprintf(stdout, "searching %v keys (%s, %s kernel)\n", space.Size(), alg, kind)

	start := time.Now()
	res, err := keysearch.Crack(ctx, job, opt)
	if err != nil {
		return err
	}

	elapsed := time.Since(start)
	for _, s := range res.Solutions {
		fmt.Fprintf(stdout, "FOUND: %q\n", s)
	}
	if len(res.Solutions) == 0 {
		fmt.Fprintln(stdout, "not found in the search space")
	}
	rate := float64(res.Tested) / elapsed.Seconds() / 1e6
	fmt.Fprintf(stdout, "tested %d keys in %v (%.2f MKey/s)\n", res.Tested, elapsed.Round(time.Millisecond), rate)
	return nil
}

// parseKernel resolves a -kernel name to its tier.
func parseKernel(name string) (keysearch.KernelKind, error) {
	switch name {
	case "optimized":
		return keysearch.KernelOptimized, nil
	case "plain":
		return keysearch.KernelPlain, nil
	case "naive":
		return keysearch.KernelNaive, nil
	}
	return 0, fmt.Errorf("unknown kernel %q", name)
}

// digestFromHex decodes a hex digest and checks its length against alg.
func digestFromHex(alg keysearch.Algorithm, hexDigest string) ([]byte, error) {
	raw, err := hex.DecodeString(hexDigest)
	if err != nil || len(raw) != alg.DigestSize() {
		return nil, fmt.Errorf("bad %s digest %q", alg, hexDigest)
	}
	return raw, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "crack:", err)
	os.Exit(1)
}
