package main

import (
	"bytes"
	"os"
	"os/exec"
	"testing"
)

// TestMain lets the test binary stand in for the command: with
// PAPER_RUN_MAIN=1 in its environment it runs main with no flags and
// exits, so TestTablesMatchGolden sees exactly what `paper` prints.
func TestMain(m *testing.M) {
	if os.Getenv("PAPER_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestTablesMatchGolden runs `paper` with its defaults (tables I–IX,
// Table IX over 60 virtual seconds) and requires its output to equal
// testdata/paper.golden byte for byte. Every table is a deterministic
// model run, so any change to an instruction count, a device model or
// the cluster simulator shows up here; regenerate the file with
// `go run ./cmd/paper > cmd/paper/testdata/paper.golden` only when such
// a change is intended.
func TestTablesMatchGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/paper.golden")
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "PAPER_RUN_MAIN=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	got, err := cmd.Output()
	if err != nil {
		t.Fatalf("paper: %v\n%s", err, stderr.Bytes())
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w []byte
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if !bytes.Equal(g, w) {
			t.Fatalf("line %d differs from testdata/paper.golden:\ngot  %q\nwant %q", i+1, g, w)
		}
	}
}
