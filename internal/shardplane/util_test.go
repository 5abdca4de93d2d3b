package shardplane

import (
	"context"
	"crypto/md5"
	"encoding/hex"
	"testing"
	"time"

	"keysearch/internal/core"
	"keysearch/internal/dispatch"
	"keysearch/internal/jobs"
	"keysearch/internal/keyspace"
)

// scanExec is an honest executor for test-sized spaces: it enumerates
// every identifier in the lease and md5s the candidate, so solutions
// come from real search, not a lookup table. An optional delay paces
// each lease (SIGKILL tests need leases in flight).
type scanExec struct {
	name  string
	tn    core.Tuning
	delay time.Duration
}

func (e *scanExec) Name() string                              { return e.name }
func (e *scanExec) Tune(context.Context) (core.Tuning, error) { return e.tn, nil }

func (e *scanExec) Search(ctx context.Context, spec jobs.Spec, iv keyspace.Interval) (*dispatch.Report, error) {
	if e.delay > 0 {
		select {
		case <-time.After(e.delay):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	space, err := spec.Space()
	if err != nil {
		return nil, err
	}
	target, err := hex.DecodeString(spec.Target)
	if err != nil {
		return nil, err
	}
	rep := &dispatch.Report{}
	for id := iv.Start; id.Cmp(iv.End) < 0; id, _ = id.Add(keyspace.IDOf(1)) {
		key, err := space.Key(id)
		if err != nil {
			return nil, err
		}
		rep.Tested++
		sum := md5.Sum(key)
		if string(sum[:]) == string(target) {
			rep.Found = append(rep.Found, key)
		}
	}
	return rep, nil
}

func newScanExec(name string, delay time.Duration) *scanExec {
	return &scanExec{name: name, tn: core.Tuning{MinBatch: 4, Throughput: 1000}, delay: delay}
}

// testSpec builds a spec whose target is md5(key) over the bounded
// space.
func testSpec(t *testing.T, key, charset string, minLen, maxLen int) jobs.Spec {
	t.Helper()
	sum := md5.Sum([]byte(key))
	sp := jobs.Spec{
		Algorithm: "md5",
		Target:    hex.EncodeToString(sum[:]),
		Charset:   charset,
		MinLen:    minLen,
		MaxLen:    maxLen,
	}
	if err := sp.Validate(); err != nil {
		t.Fatalf("testSpec(%q): %v", key, err)
	}
	return sp
}

// waitFor polls until the condition holds or the deadline expires.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}
