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
//	crack -alg sha1 -hash <hex> -wordlist words.txt -rules leet,capitalize
package main

import (
	"bufio"
	"context"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/big"
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

// run parses the command line in args, runs the attack it names and
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
		maskSpec   = fs.String("mask", "", "mask attack: per-position pattern like ?u?l?l?d?d")
		wordlist   = fs.String("wordlist", "", "dictionary attack: word file (one per line)")
		rulesSpec  = fs.String("rules", "identity", "dictionary mangling rules")
		maskLen    = fs.Int("mask-digits", 0, "hybrid attack: brute-forced digit suffix length")
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
	if *maskSpec != "" || *wordlist != "" {
		// The mask and dictionary attacks run the unsalted optimized kernel.
		if *saltPre != "" || *saltSuf != "" || *kernelName != "optimized" {
			return errors.New("-mask and -wordlist take no -salt-prefix, -salt-suffix or -kernel")
		}
	}

	start := time.Now()
	var res *keysearch.Result
	if *maskSpec != "" {
		res, err = maskAttack(ctx, stdout, alg, raw, *maskSpec, opt)
	} else if *wordlist != "" {
		res, err = dictAttack(ctx, stdout, alg, raw, *wordlist, *rulesSpec, *maskLen, opt)
	} else {
		res, err = bruteForce(ctx, stdout, alg, raw, *charset, *minLen, *maxLen,
			*kernelName, *saltPre, *saltSuf, opt)
	}
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

func bruteForce(ctx context.Context, stdout io.Writer, alg keysearch.Algorithm, raw []byte, charset string,
	minLen, maxLen int, kernelName, saltPre, saltSuf string, opt keysearch.Options) (*keysearch.Result, error) {

	space, err := keysearch.NewSpace(charset, minLen, maxLen)
	if err != nil {
		return nil, err
	}
	var kind keysearch.KernelKind
	switch kernelName {
	case "optimized":
		kind = keysearch.KernelOptimized
	case "plain":
		kind = keysearch.KernelPlain
	case "naive":
		kind = keysearch.KernelNaive
	default:
		return nil, fmt.Errorf("unknown kernel %q", kernelName)
	}
	job := &keysearch.Job{Algorithm: alg, Target: raw, Space: space, Kind: kind,
		Salt: keysearch.Salt{Prefix: []byte(saltPre), Suffix: []byte(saltSuf)}}
	fmt.Fprintf(stdout, "searching %v keys (%s, %s kernel)\n", space.Size(), alg, kind)
	return keysearch.Crack(ctx, job, opt)
}

// digestFromHex decodes a hex digest and checks its length against alg.
func digestFromHex(alg keysearch.Algorithm, hexDigest string) ([]byte, error) {
	raw, err := hex.DecodeString(hexDigest)
	if err != nil || len(raw) != alg.DigestSize() {
		return nil, fmt.Errorf("bad %s digest %q", alg, hexDigest)
	}
	return raw, nil
}

func maskAttack(ctx context.Context, stdout io.Writer, alg keysearch.Algorithm, raw []byte, spec string,
	opt keysearch.Options) (*keysearch.Result, error) {

	m, err := keysearch.ParseMask(spec)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(stdout, "mask attack %q: %v candidates\n", spec, m.Size())
	return keysearch.MaskAttack(ctx, alg, raw, m, opt)
}

func dictAttack(ctx context.Context, stdout io.Writer, alg keysearch.Algorithm, raw []byte, wordfile, rulesSpec string,
	maskDigits int, opt keysearch.Options) (*keysearch.Result, error) {

	f, err := os.Open(wordfile)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var words []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if w := sc.Text(); w != "" {
			words = append(words, w)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	rules, err := keysearch.ParseRules(rulesSpec)
	if err != nil {
		return nil, err
	}
	var mask *keysearch.Space
	if maskDigits > 0 {
		mask, err = keysearch.NewSpaceOrdered(keysearch.DigitsSet, maskDigits, maskDigits, keysearch.SuffixMajor)
		if err != nil {
			return nil, err
		}
	}
	ds, err := keysearch.NewDictSpace(words, rules, mask)
	if err != nil {
		return nil, err
	}
	size := new(big.Int).Set(ds.Size())
	fmt.Fprintf(stdout, "dictionary attack: %d words x rules x mask = %v candidates\n", len(words), size)
	return keysearch.DictAttack(ctx, alg, raw, ds, opt)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "crack:", err)
	os.Exit(1)
}
