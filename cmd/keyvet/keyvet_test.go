package main

import (
	"bytes"
	"encoding/json"
	"go/build"
	"go/token"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

var (
	loaderOnce sync.Once
	testLoader *loader
	testRoot   string
	loaderErr  error
)

// sharedLoader builds one loader for all tests: the source importer
// type-checks the standard library once, and the seeded packages reuse
// the cached real module packages they import.
func sharedLoader(t *testing.T) (*loader, string) {
	t.Helper()
	loaderOnce.Do(func() {
		build.Default.CgoEnabled = false
		testRoot, loaderErr = findModuleRoot()
		if loaderErr != nil {
			return
		}
		testLoader, loaderErr = newLoader(testRoot)
	})
	if loaderErr != nil {
		t.Fatal(loaderErr)
	}
	return testLoader, testRoot
}

// loadSeed type-checks a testdata package under a fake import path that
// places it inside the scope the rule under test is bound to.
func loadSeed(t *testing.T, dir, as string) []finding {
	t.Helper()
	l, root := sharedLoader(t)
	p, err := l.loadDirAs(filepath.Join(root, "cmd", "keyvet", "testdata", dir), as)
	if err != nil {
		t.Fatal(err)
	}
	return checkPackage(p)
}

// loadSeedAll runs the full gate — per-package and interprocedural
// rules — over one seeded package, for the rules that live in
// checkProgram (lockorder, atomicmix).
func loadSeedAll(t *testing.T, dir, as string) []finding {
	t.Helper()
	l, root := sharedLoader(t)
	p, err := l.loadDirAs(filepath.Join(root, "cmd", "keyvet", "testdata", dir), as)
	if err != nil {
		t.Fatal(err)
	}
	return runChecks([]*pkg{p})
}

func countRule(fs []finding, rule string) int {
	n := 0
	for _, f := range fs {
		if f.Rule == rule {
			n++
		}
	}
	return n
}

func wantFinding(t *testing.T, fs []finding, rule, msgPart string) {
	t.Helper()
	for _, f := range fs {
		if f.Rule == rule && strings.Contains(f.Msg, msgPart) {
			return
		}
	}
	t.Errorf("no %s finding containing %q; got %v", rule, msgPart, fs)
}

// TestHotloopSeeds: every violation class in the annotated loop is
// flagged; the unannotated dirty loop and the allow'd loop stay silent.
func TestHotloopSeeds(t *testing.T) {
	fs := loadSeed(t, "hotloop", "keysearch/seeds/hotloop")
	if got := countRule(fs, ruleHotloop); got != 6 {
		t.Errorf("hotloop findings = %d, want 6: %v", got, fs)
	}
	if len(fs) != 6 {
		t.Errorf("total findings = %d, want 6 (other rules must stay silent): %v", len(fs), fs)
	}
	wantFinding(t, fs, ruleHotloop, "make allocates")
	wantFinding(t, fs, ruleHotloop, "map access")
	wantFinding(t, fs, ruleHotloop, "string conversion")
	wantFinding(t, fs, ruleHotloop, "telemetry call")
	wantFinding(t, fs, ruleHotloop, "type assertion")
}

// TestLockConnSeeds: the struct-mutex-across-write patterns are flagged;
// the function-local serializer and the release-before-write pattern are
// not. The fake path places the seeds inside internal/netproto.
func TestLockConnSeeds(t *testing.T) {
	fs := loadSeed(t, "lockconn", "keysearch/internal/netproto/lockconnseeds")
	if got := countRule(fs, ruleLockConn); got != 2 {
		t.Errorf("lockconn findings = %d, want 2: %v", got, fs)
	}
	wantFinding(t, fs, ruleLockConn, "net.Conn.Write")
	wantFinding(t, fs, ruleLockConn, "WriteFrame")
	for _, f := range fs {
		if f.Rule == ruleLockConn && !strings.Contains(f.Msg, "p.mu") {
			t.Errorf("finding names the wrong mutex: %v", f)
		}
	}
}

// TestMetricNameSeeds: literal metric names are flagged, names from the
// telemetry constants are not, and a literal inside PerNode or PerTenant
// is reported exactly once.
func TestMetricNameSeeds(t *testing.T) {
	fs := loadSeed(t, "metricname", "keysearch/seeds/metricname")
	if got := countRule(fs, ruleMetricName); got != 3 {
		t.Errorf("metricname findings = %d, want 3: %v", got, fs)
	}
	wantFinding(t, fs, ruleMetricName, "telemetry.Counter")
	wantFinding(t, fs, ruleMetricName, "telemetry.PerNode")
	wantFinding(t, fs, ruleMetricName, "telemetry.PerTenant")
}

// TestSwallowedErrSeeds: call-statement, blank-assignment and
// blank-in-tuple discards are flagged inside the dispatch scope; the
// handled error and the allow'd discard are not.
func TestSwallowedErrSeeds(t *testing.T) {
	fs := loadSeed(t, "swallowederr", "keysearch/internal/dispatch/swallowederrseeds")
	if got := countRule(fs, ruleSwallowedErr); got != 3 {
		t.Errorf("swallowederr findings = %d, want 3: %v", got, fs)
	}
	wantFinding(t, fs, ruleSwallowedErr, "error result discarded")
	wantFinding(t, fs, ruleSwallowedErr, "blank identifier")
}

// TestSeededViolations drives all four interprocedural analyzers over
// their seeded-violation corpora. Each case loads one testdata package
// under a fake import path that places it inside the rule's scope,
// runs the full gate, and pins the exact finding count — so the ok.go
// negative fixtures (correct lock order, clock-injected code, stopped
// tickers, allow'd sites) are asserted silent by the same check that
// proves the seeds fire.
func TestSeededViolations(t *testing.T) {
	cases := []struct {
		dir      string   // testdata subdirectory
		as       string   // fake import path selecting the scope
		rule     string   // the analyzer under test
		want     int      // exact finding count (all under rule)
		msgParts []string // one finding must contain each
		inEvery  string   // every finding must contain (optional)
	}{
		{
			// The opposite-order cycle, the direct and interprocedural
			// held-across-blocking patterns, and the self-deadlock-via-
			// callee fire; release-before-send, local-serializer,
			// select-with-default, vouched-callee, and spawned-goroutine
			// patterns stay silent.
			dir:  "lockorder",
			as:   "keysearch/internal/dispatch/lockorderseeds",
			rule: ruleLockOrder,
			want: 5,
			msgParts: []string{
				"lock order cycle",
				"held across channel send",
				"held across sync.WaitGroup.Wait",
				"time.Sleep via nap",
				"self-deadlock",
			},
		},
		{
			// Calls and stored function values of the wall-clock time
			// functions fire; the injected-clock path, clock-less
			// constructors, and the allow'd read stay silent.
			dir:  "clockseam",
			as:   "keysearch/internal/jobs/clockseamseeds",
			rule: ruleClockSeam,
			want: 5,
			msgParts: []string{
				"time.Now",
				"time.Sleep",
				"time.Since",
				"time.After",
			},
		},
		{
			// Forever-loops (literal and named), the empty select, and
			// the three timer leaks fire; the ctx-draining loop,
			// channel-closing receiver, stopped timer, escaping ticker,
			// and allow'd pump stay silent.
			dir:  "goleak",
			as:   "keysearch/internal/dispatch/goleakseeds",
			rule: ruleGoLeak,
			want: 6,
			msgParts: []string{
				"no shutdown path",
				"empty select",
				"never stopped",
				"time.Tick leaks",
				"result discarded",
			},
		},
		{
			// The plain read, write, and read-modify-write of the
			// atomically-used field fire; atomic-only and plain-only
			// fields, keyed composite literals, and the allow'd read
			// stay silent. Every finding must name the mixed field.
			dir:     "atomicmix",
			as:      "keysearch/seeds/atomicmixseeds",
			rule:    ruleAtomicMix,
			want:    3,
			inEvery: "stats.hits",
		},
	}
	for _, tc := range cases {
		t.Run(tc.rule, func(t *testing.T) {
			fs := loadSeedAll(t, tc.dir, tc.as)
			if got := countRule(fs, tc.rule); got != tc.want {
				t.Errorf("%s findings = %d, want %d: %v", tc.rule, got, tc.want, fs)
			}
			if len(fs) != tc.want {
				t.Errorf("total findings = %d, want %d (other rules must stay silent): %v", len(fs), tc.want, fs)
			}
			for _, part := range tc.msgParts {
				wantFinding(t, fs, tc.rule, part)
			}
			if tc.inEvery != "" {
				for _, f := range fs {
					if !strings.Contains(f.Msg, tc.inEvery) {
						t.Errorf("finding missing %q: %v", tc.inEvery, f)
					}
				}
			}
		})
	}
}

// TestShardplaneClockSeamScope pins the shardplane scope extension: a
// wall-clock read loaded inside internal/shardplane fires exactly one
// clockseam finding, while the clock-injected twin stays silent — the
// failover-rehearsal path is held to the same virtual-time discipline
// as jobs and fleetsim.
func TestShardplaneClockSeamScope(t *testing.T) {
	fs := loadSeedAll(t, "shardclock", "keysearch/internal/shardplane/shardclockseeds")
	if got := countRule(fs, ruleClockSeam); got != 1 {
		t.Errorf("clockseam findings = %d, want 1: %v", got, fs)
	}
	if len(fs) != 1 {
		t.Errorf("total findings = %d, want 1 (other rules must stay silent): %v", len(fs), fs)
	}
	wantFinding(t, fs, ruleClockSeam, "time.Now")
	// The same package outside any clock-seam scope is silent: the rule
	// is path-scoped, not global.
	if fs := loadSeedAll(t, "shardclock", "keysearch/seeds/shardclockneutral"); len(fs) != 0 {
		t.Errorf("shardclock seeds outside clock-seam scope: %v", fs)
	}
}

// TestFrameLogAppendUnderLock pins that moving the WAL fsync into
// internal/frame, behind the frame.File seam, did not blind lockorder: a
// mutex held across frame.Log.Append is reported through the interface
// call, while the store's vouched-for shape stays silent.
func TestFrameLogAppendUnderLock(t *testing.T) {
	l, root := sharedLoader(t)
	seed, err := l.loadDirAs(filepath.Join(root, "cmd", "keyvet", "testdata", "framelock"), "keysearch/internal/jobs/framelockseeds")
	if err != nil {
		t.Fatal(err)
	}
	real, err := l.load(framePath)
	if err != nil {
		t.Fatal(err)
	}
	fs := runChecks([]*pkg{seed, real})
	if len(fs) != 1 || countRule(fs, ruleLockOrder) != 1 {
		t.Errorf("findings = %v, want exactly one lockorder finding", fs)
	}
	wantFinding(t, fs, ruleLockOrder, "fsync) via Append")
	wantFinding(t, fs, ruleLockOrder, "table.mu")
}

// TestAllowScopeSeeds pins the scope-level //keyvet:allow semantics: a
// rule list in a doc comment suppresses exactly the listed rules inside
// exactly that declaration, line-level allows still work inside
// unallowed functions, and neighboring scopes do not leak.
func TestAllowScopeSeeds(t *testing.T) {
	fs := loadSeedAll(t, "allowscope", "keysearch/internal/jobs/allowscopeseeds")
	if got := countRule(fs, ruleClockSeam); got != 1 {
		t.Errorf("clockseam findings = %d, want 1 (only uncovered): %v", got, fs)
	}
	if got := countRule(fs, ruleGoLeak); got != 3 {
		t.Errorf("goleak findings = %d, want 3 (coveredOne, uncovered, lineInside): %v", got, fs)
	}
	if len(fs) != 4 {
		t.Errorf("total findings = %d, want 4: %v", len(fs), fs)
	}
}

// TestSeedScopesDoNotLeak: seeds loaded OUTSIDE their rule's package
// scope produce no findings — the rules are path-scoped, not global
// (atomicmix excepted: it is global by design and covered above).
func TestSeedScopesDoNotLeak(t *testing.T) {
	if fs := loadSeed(t, "lockconn", "keysearch/seeds/lockconnneutral"); len(fs) != 0 {
		t.Errorf("lockconn seeds outside netproto scope: %v", fs)
	}
	if fs := loadSeed(t, "swallowederr", "keysearch/seeds/swallowederrneutral"); len(fs) != 0 {
		t.Errorf("swallowederr seeds outside dispatch scope: %v", fs)
	}
	if fs := loadSeedAll(t, "lockorder", "keysearch/seeds/lockorderneutral"); len(fs) != 0 {
		t.Errorf("lockorder seeds outside concurrency scope: %v", fs)
	}
	if fs := loadSeedAll(t, "clockseam", "keysearch/seeds/clockseamneutral"); len(fs) != 0 {
		t.Errorf("clockseam seeds outside clock-seam scope: %v", fs)
	}
	if fs := loadSeedAll(t, "goleak", "keysearch/seeds/goleakneutral"); len(fs) != 0 {
		t.Errorf("goleak seeds outside concurrency scope: %v", fs)
	}
}

// TestJSONOutput pins the -json schema: an array of
// {file, line, col, rule, msg} objects, [] for a clean tree.
func TestJSONOutput(t *testing.T) {
	fs := []finding{{
		Pos:  token.Position{Filename: "/repo/internal/jobs/service.go", Line: 3, Column: 7},
		Rule: ruleClockSeam,
		Msg:  "direct time.Now",
	}}
	var buf bytes.Buffer
	rel := func(s string) string { return strings.TrimPrefix(s, "/repo/") }
	if err := writeJSON(&buf, fs, rel); err != nil {
		t.Fatal(err)
	}
	var out []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("invalid JSON %q: %v", buf.String(), err)
	}
	if len(out) != 1 {
		t.Fatalf("records = %d, want 1", len(out))
	}
	want := map[string]any{
		"file": "internal/jobs/service.go",
		"line": float64(3),
		"col":  float64(7),
		"rule": "clockseam",
		"msg":  "direct time.Now",
	}
	for k, v := range want {
		if out[0][k] != v {
			t.Errorf("%s = %v, want %v", k, out[0][k], v)
		}
	}
	if len(out[0]) != len(want) {
		t.Errorf("schema has %d keys, want %d: %v", len(out[0]), len(want), out[0])
	}

	buf.Reset()
	if err := writeJSON(&buf, nil, rel); err != nil {
		t.Fatal(err)
	}
	if got := strings.TrimSpace(buf.String()); got != "[]" {
		t.Errorf("empty findings encode as %q, want []", got)
	}
}

// TestRepoIsClean runs every rule over every package of the module —
// the CI gate: the shipped tree must be keyvet-clean.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module from source")
	}
	l, root := sharedLoader(t)
	paths, err := discover(root, l.module, root)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) < 15 {
		t.Fatalf("discovered only %d packages (%v); discovery is broken", len(paths), paths)
	}
	var ps []*pkg
	for _, path := range paths {
		p, err := l.load(path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		ps = append(ps, p)
	}
	for _, f := range runChecks(ps) {
		t.Errorf("%s", f)
	}
}

// TestAnnotatedHotLoopsExist guards against the annotations silently
// disappearing: the per-candidate loops of the searchers must stay
// marked, or the hotloop rule checks nothing.
func TestAnnotatedHotLoopsExist(t *testing.T) {
	l, _ := sharedLoader(t)
	marked := 0
	for _, path := range []string{
		"keysearch/internal/core",
		"keysearch/internal/gpu",
		"keysearch/internal/hash/md5x",
		"keysearch/internal/hash/sha1x",
	} {
		p, err := l.load(path)
		if err != nil {
			t.Fatal(err)
		}
		c := &checker{p: p, hot: map[string]bool{}, allow: map[string]map[string]bool{}}
		for _, f := range p.Files {
			c.directives(f)
		}
		if len(c.hot) == 0 {
			t.Errorf("%s: no //keyvet:hotloop annotations", path)
		}
		marked += len(c.hot)
	}
	if marked < 8 {
		t.Errorf("only %d hot-loop annotations across the searchers, want >= 8", marked)
	}
}
