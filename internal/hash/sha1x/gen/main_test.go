package main

import (
	"bytes"
	"os"
	"testing"
)

// TestGeneratedKernelsAreCurrent regenerates the kernels in memory and
// requires the checked-in file to match byte for byte: an edit to the
// generator or to the definitions it reads must come with
// `go generate ./internal/hash/sha1x/`.
func TestGeneratedKernelsAreCurrent(t *testing.T) {
	want, err := generate()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../kernels_gen.go")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("internal/hash/sha1x/kernels_gen.go is stale: run go generate ./internal/hash/sha1x/")
	}
}
