package main

import (
	"bytes"
	"os"
	"testing"
)

// TestGeneratedKernelsAreCurrent regenerates the kernels in memory and
// requires the checked-in files to match byte for byte: an edit to the
// generator or to the definitions it reads must come with
// `go generate ./internal/hash/sha1x/`.
func TestGeneratedKernelsAreCurrent(t *testing.T) {
	src, err := generate()
	if err != nil {
		t.Fatal(err)
	}
	asm, err := generateAsm()
	if err != nil {
		t.Fatal(err)
	}
	for file, want := range map[string][]byte{"kernels_gen.go": src, "screen_amd64.s": asm} {
		got, err := os.ReadFile("../" + file)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("internal/hash/sha1x/%s is stale: run go generate ./internal/hash/sha1x/", file)
		}
	}
}
