package keysearch_test

import (
	"context"
	"testing"
	"time"

	"keysearch"
)

func TestCrackHexQuickstart(t *testing.T) {
	space, err := keysearch.NewSpace(keysearch.Lowercase, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	// md5("abc")
	res, err := keysearch.CrackHex(context.Background(), keysearch.MD5,
		"900150983cd24fb0d6963f7d28e17f72", space)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Solutions) != 1 || string(res.Solutions[0]) != "abc" {
		t.Errorf("solutions = %q", res.Solutions)
	}
}

func TestCrackSHA1(t *testing.T) {
	space, err := keysearch.NewSpace(keysearch.DigitsSet, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	digest := keysearch.HashKey(keysearch.SHA1, []byte("2016"))
	job := &keysearch.Job{Algorithm: keysearch.SHA1, Target: digest, Space: space}
	res, err := keysearch.Crack(context.Background(), job, keysearch.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Solutions) != 1 || string(res.Solutions[0]) != "2016" {
		t.Errorf("solutions = %q", res.Solutions)
	}
}

func TestCrackSalted(t *testing.T) {
	space, err := keysearch.NewSpace(keysearch.Lowercase, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	salt := keysearch.Salt{Suffix: []byte("pepper")}
	digest := keysearch.HashKey(keysearch.MD5, append([]byte("dog"), []byte("pepper")...))
	res, err := keysearch.CrackSalted(context.Background(), keysearch.MD5, digest, salt, space, keysearch.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Solutions) != 1 || string(res.Solutions[0]) != "dog" {
		t.Errorf("solutions = %q", res.Solutions)
	}
	if _, err := keysearch.CrackSalted(context.Background(), keysearch.MD5, []byte("short"), salt, space, keysearch.Options{}); err == nil {
		t.Error("bad digest length accepted")
	}
}

func TestDispatchedCrackAcrossMixedWorkers(t *testing.T) {
	space, err := keysearch.NewSpace(keysearch.Lowercase, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	job := &keysearch.Job{
		Algorithm: keysearch.MD5,
		Target:    keysearch.HashKey(keysearch.MD5, []byte("fox")),
		Space:     space,
	}
	dev, err := keysearch.DeviceByName("660")
	if err != nil {
		t.Fatal(err)
	}
	d := keysearch.NewDispatcher("mixed", keysearch.DispatchOptions{MaxSolutions: 1},
		keysearch.NewCPUWorker("cpu", job, 2),
		keysearch.NewGPUWorker("sim-660", dev, job),
	)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	rep, err := d.Search(ctx, space.Whole())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Found) == 0 || string(rep.Found[0]) != "fox" {
		t.Errorf("found %q", rep.Found)
	}
}

func TestPaperNetworkSimulation(t *testing.T) {
	tree := keysearch.PaperNetwork(keysearch.MD5)
	res, err := keysearch.SimulateCluster(tree, 1e11, keysearch.ClusterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	theo := keysearch.TheoreticalNetworkThroughput(keysearch.MD5)
	eff := res.Throughput / theo
	// Table IX reports 0.852 for MD5; our per-device models differ
	// slightly, so accept 0.75–0.95.
	if eff < 0.70 || eff > 0.98 {
		t.Errorf("network efficiency vs theoretical = %.3f, paper: 0.852", eff)
	}
	if res.DispatchEfficiency < 0.9 {
		t.Errorf("dispatch efficiency = %.3f, want near-perfect parallelism", res.DispatchEfficiency)
	}
}

func TestParseHelpers(t *testing.T) {
	if alg, err := keysearch.ParseAlgorithm("sha1"); err != nil || alg != keysearch.SHA1 {
		t.Error("ParseAlgorithm")
	}
	if _, err := keysearch.NewSpace("", 1, 2); err == nil {
		t.Error("empty charset accepted")
	}
	if _, err := keysearch.NewSpace(keysearch.Lowercase, 3, 2); err == nil {
		t.Error("inverted lengths accepted")
	}
	if len(keysearch.Devices()) != 5 {
		t.Error("device catalog size")
	}
}

func TestFindBestFacade(t *testing.T) {
	space, err := keysearch.NewSpace(keysearch.DigitsSet, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Score: numeric distance from 42.
	score := func(c []byte) float64 {
		v := float64(c[0]-'0')*10 + float64(c[1]-'0')
		if v > 42 {
			return v - 42
		}
		return 42 - v
	}
	best, tested, err := keysearch.FindBest(context.Background(), space, space.Whole(), score, keysearch.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if string(best.Candidate) != "42" || best.Score != 0 {
		t.Errorf("best = %q (%v)", best.Candidate, best.Score)
	}
	if tested != 100 {
		t.Errorf("tested = %d", tested)
	}
	if keysearch.MergeBest(best, nil) == nil {
		t.Error("MergeBest dropped the result")
	}
}

func TestGPUEngineFacade(t *testing.T) {
	dev, err := keysearch.DeviceByName("8800")
	if err != nil {
		t.Fatal(err)
	}
	e := keysearch.NewGPUEngine(dev)
	if e.Device().Name != dev.Name {
		t.Error("engine device mismatch")
	}
}
