package main

import (
	"bytes"
	"context"
	"crypto/md5"
	"crypto/sha1"
	"encoding/hex"
	"errors"
	"strings"
	"testing"
)

// TestRun: an MD5, a SHA1 and a salted target are found, and a bad
// digest, an unknown kernel or a removed flag is refused before any
// search starts.
func TestRun(t *testing.T) {
	md5abc := md5.Sum([]byte("abc"))
	sha1ab := sha1.Sum([]byte("ab"))
	salted := md5.Sum([]byte("catNaCl"))
	abc := hex.EncodeToString(md5abc[:])
	for _, tc := range []struct {
		name  string
		args  []string
		found string // the FOUND line's key; "" when run must fail
		usage bool   // the failure is errUsage
	}{
		{"md5", []string{"-hash", abc, "-max", "3", "-workers", "2"}, "abc", false},
		{"sha1", []string{"-alg", "sha1", "-hash", hex.EncodeToString(sha1ab[:]), "-max", "3"}, "ab", false},
		{"salt suffix", []string{"-hash", hex.EncodeToString(salted[:]), "-salt-suffix", "NaCl", "-max", "3"}, "cat", false},
		{"short digest", []string{"-hash", abc[:30]}, "", false},
		{"sha1 length md5 digest", []string{"-alg", "sha1", "-hash", abc}, "", false},
		{"not hex", []string{"-hash", abc[:31] + "z"}, "", false},
		{"unknown kernel", []string{"-hash", abc, "-kernel", "fast"}, "", false},
		{"no hash", []string{"-max", "3"}, "", true},
		{"mask is gone", []string{"-mask", "?d?d?d", "-hash", abc}, "", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			err := run(context.Background(), tc.args, &out)
			if tc.found == "" {
				if err == nil {
					t.Fatalf("run succeeded:\n%s", out.String())
				}
				if errors.Is(err, errUsage) != tc.usage {
					t.Fatalf("err = %v, usage error %v", err, tc.usage)
				}
				if strings.Contains(out.String(), "searching") {
					t.Fatalf("refused after the search started:\n%s", out.String())
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if want := "FOUND: \"" + tc.found + "\"\n"; !strings.Contains(out.String(), want) {
				t.Fatalf("no %q in:\n%s", want, out.String())
			}
		})
	}
}
