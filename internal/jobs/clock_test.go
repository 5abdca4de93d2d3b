package jobs

import (
	"context"
	"crypto/md5"
	"encoding/hex"
	"testing"
	"time"

	"keysearch/internal/keyspace"
	"keysearch/internal/sim"
)

// frozenClock is a sim.Clock that never advances: any code path that
// consults it measures zero elapsed time, and any path that slips past
// it to the wall clock measures more.
type frozenClock struct{ t time.Time }

func (f frozenClock) Now() time.Time                  { return f.t }
func (f frozenClock) Since(t time.Time) time.Duration { return f.t.Sub(t) }
func (f frozenClock) AfterFunc(d time.Duration, fn func()) sim.Timer {
	return sim.Wall{}.AfterFunc(d, fn)
}

// tickClock is a sim.Clock whose Now advances one nanosecond per call,
// so every record a test store writes carries a distinct, reproducible
// stamp.
type tickClock struct{ tick int64 }

func (c *tickClock) Now() time.Time                  { c.tick++; return time.Unix(0, c.tick) }
func (c *tickClock) Since(t time.Time) time.Duration { return time.Unix(0, c.tick).Sub(t) }
func (c *tickClock) AfterFunc(d time.Duration, fn func()) sim.Timer {
	return sim.Wall{}.AfterFunc(d, fn)
}

// TestLocalExecutorUsesInjectedClock pins the clockseam fix: with a
// frozen clock injected, Search must report Elapsed == 0. Before the
// fix, LocalExecutor stamped reports with time.Now/time.Since directly
// and the injected clock was unreachable.
func TestLocalExecutorUsesInjectedClock(t *testing.T) {
	sum := md5.Sum([]byte("ab"))
	spec := Spec{
		Algorithm: "md5",
		Target:    hex.EncodeToString(sum[:]),
		Charset:   "ab",
		MinLen:    1,
		MaxLen:    2,
	}
	ex := NewLocalExecutor("cpu", 1)
	ex.Clock = frozenClock{t: time.Unix(1000, 0)}
	rep, err := ex.Search(context.Background(), spec, keyspace.NewInterval(0, 6))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Elapsed != 0 {
		t.Errorf("Elapsed = %v under a frozen clock, want 0", rep.Elapsed)
	}
	if rep.Tested != 6 {
		t.Errorf("Tested = %d, want 6", rep.Tested)
	}
	if len(rep.Found) != 1 || string(rep.Found[0]) != "ab" {
		t.Errorf("Found = %v, want the key \"ab\"", rep.Found)
	}
}
