package dispatch

import (
	"context"
	"errors"
	"testing"

	"keysearch/internal/cracker"
	"keysearch/internal/keyspace"
)

// TestLocalWorkerTuneFailsClosed: a cancelled tuning step is an error to
// TuneAll, never a made-up throughput Shares would turn into a lease size.
func TestLocalWorkerTuneFailsClosed(t *testing.T) {
	space, err := keyspace.New(keyspace.Lower, 1, 4, keyspace.PrefixMajor)
	if err != nil {
		t.Fatal(err)
	}
	job := &cracker.Job{Algorithm: cracker.MD5, Target: cracker.MD5.HashKey([]byte("zzzz")), Space: space}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if tn, err := NewLocalWorker("w", job, 1).Tune(ctx); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled Tune = %+v, %v; want context.Canceled", tn, err)
	}
}
