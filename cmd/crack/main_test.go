package main

import (
	"bytes"
	"context"
	"crypto/md5"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestMaskAndWordlistCheckTheirInput: the mask and dictionary attacks
// refuse a digest of the wrong length and the flags they would ignore,
// before searching, and -all finds every preimage.
func TestMaskAndWordlistCheckTheirInput(t *testing.T) {
	// "123" first and last, more than one worker's claim apart: the
	// search stops after the first unless -all.
	list := []string{"123"}
	for i := 0; i < 1<<16; i++ {
		list = append(list, fmt.Sprintf("w%d", i))
	}
	words := filepath.Join(t.TempDir(), "words.txt")
	if err := os.WriteFile(words, []byte(strings.Join(append(list, "123"), "\n")), 0o644); err != nil {
		t.Fatal(err)
	}
	d := md5.Sum([]byte("123"))
	good := hex.EncodeToString(d[:])
	short := good[:30]
	for _, tc := range []struct {
		name  string
		args  []string
		found int // FOUND lines; -1 when run must fail
	}{
		{"mask short digest", []string{"-mask", "?d?d?d", "-hash", short}, -1},
		{"wordlist short digest", []string{"-wordlist", words, "-hash", short}, -1},
		{"mask not hex", []string{"-mask", "?d?d?d", "-hash", good[:31] + "z"}, -1},
		{"mask salt prefix", []string{"-mask", "?d?d?d", "-hash", good, "-salt-prefix", "s"}, -1},
		{"wordlist salt suffix", []string{"-wordlist", words, "-hash", good, "-salt-suffix", "s"}, -1},
		{"mask kernel", []string{"-mask", "?d?d?d", "-hash", good, "-kernel", "plain"}, -1},
		{"wordlist kernel", []string{"-wordlist", words, "-hash", good, "-kernel", "naive"}, -1},
		{"mask", []string{"-mask", "?d?d?d", "-hash", good, "-workers", "2"}, 1},
		{"wordlist first", []string{"-wordlist", words, "-hash", good, "-workers", "1"}, 1},
		{"wordlist all", []string{"-wordlist", words, "-hash", good, "-workers", "1", "-all"}, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			err := run(context.Background(), tc.args, &out)
			if tc.found < 0 {
				if err == nil {
					t.Fatalf("run succeeded:\n%s", out.String())
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if got := strings.Count(out.String(), "FOUND: \"123\"\n"); got != tc.found {
				t.Fatalf("found \"123\" %d times, want %d:\n%s", got, tc.found, out.String())
			}
		})
	}
}
