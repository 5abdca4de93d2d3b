package main

import (
	"fmt"
	"sort"
	"strconv"
	"sync"

	"keysearch/internal/jobs"
	"keysearch/internal/keyspace"
)

// tile is one committed lease as jobs.Options.OnCommit reports it.
type tile struct {
	start, end, tested uint64
}

// auditor collects every committed lease of every job of a run. Its
// hook runs under the service lock, so it only appends; the checks run
// after the job is terminal.
type auditor struct {
	mu    sync.Mutex
	tiles map[string][]tile
}

func newAuditor() *auditor { return &auditor{tiles: make(map[string][]tile)} }

// onCommit is the jobs.Options.OnCommit hook.
func (a *auditor) onCommit(jobID, _ string, iv keyspace.Interval, tested uint64) {
	t := tile{tested: tested}
	if iv.Start.IsUint64() && iv.End.IsUint64() {
		t.start, t.end = iv.Start.Uint64(), iv.End.Uint64()
	} // else: an empty tile, which checkTiling rejects
	a.mu.Lock()
	a.tiles[jobID] = append(a.tiles[jobID], t)
	a.mu.Unlock()
}

// take removes and returns a job's tiles.
func (a *auditor) take(jobID string) []tile {
	a.mu.Lock()
	defer a.mu.Unlock()
	t := a.tiles[jobID]
	delete(a.tiles, jobID)
	return t
}

// checkTiling requires the committed leases to cover [0, size) exactly
// once: sorted by start they must begin at 0, each begin where the
// previous ended (a gap is a skipped identifier, an overlap or a
// repeated tile is a double commit), end at size, and each report
// exactly its own length as tested.
func checkTiling(tiles []tile, size uint64) error {
	s := append([]tile(nil), tiles...)
	sort.Slice(s, func(i, j int) bool {
		if s[i].start != s[j].start {
			return s[i].start < s[j].start
		}
		return s[i].end < s[j].end
	})
	var at, tested uint64
	for _, t := range s {
		switch {
		case t.end <= t.start:
			return fmt.Errorf("empty or inverted lease [%d,%d)", t.start, t.end)
		case t.start > at:
			return fmt.Errorf("gap: [%d,%d) was never committed", at, t.start)
		case t.start < at:
			return fmt.Errorf("overlap: [%d,%d) committed after coverage reached %d", t.start, t.end, at)
		case t.tested != t.end-t.start:
			return fmt.Errorf("lease [%d,%d) reported %d tested", t.start, t.end, t.tested)
		}
		at = t.end
		tested += t.tested
	}
	if at != size {
		return fmt.Errorf("coverage ends at %d, space is %d", at, size)
	}
	if tested != size {
		return fmt.Errorf("tested %d, space is %d", tested, size)
	}
	return nil
}

// checkJob verifies a terminal job snapshot — from Service.Get or
// decoded from the HTTP API's JSON — against what the generator
// planted: DONE, every identifier tested, nothing remaining, and the
// found keys exactly the planted ones.
func checkJob(j jobs.Job, size uint64, planted []string) error {
	if j.State != jobs.StateDone {
		return fmt.Errorf("job %s: state %s (%s), want done", j.ID, j.State, j.Reason)
	}
	if j.Tested != size {
		return fmt.Errorf("job %s: tested %d, space is %d", j.ID, j.Tested, size)
	}
	if j.Space != strconv.FormatUint(size, 10) || j.Remaining != "0" {
		return fmt.Errorf("job %s: space %s remaining %s, want %d and 0", j.ID, j.Space, j.Remaining, size)
	}
	got := append([]string(nil), j.Found...)
	want := append([]string(nil), planted...)
	sort.Strings(got)
	sort.Strings(want)
	if len(got) != len(want) {
		return fmt.Errorf("job %s: found %d keys %q, planted %d", j.ID, len(got), got, len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("job %s: found %q, planted %q", j.ID, got, want)
		}
	}
	return nil
}
