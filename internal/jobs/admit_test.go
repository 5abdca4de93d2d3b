package jobs

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"

	"keysearch/internal/core"
	"keysearch/internal/dispatch"
)

// scanAdmit is the reference admission: a scan over the whole table
// that picks, while a slot and the tenant's quota allow, the PENDING job
// with the highest priority, then the earliest SubmittedAt, then the
// first in table order. With no lease left in flight between operations
// the service's active set is exactly the RUNNING jobs.
func scanAdmit(table []Job, sched SchedOptions) []string {
	perTenant := map[string]int{}
	running := 0
	for _, j := range table {
		if j.State == StateRunning {
			perTenant[j.Tenant]++
			running++
		}
	}
	var out []string
	for ; running < sched.maxRunning(); running++ {
		best := -1
		for i, j := range table {
			if j.State != StatePending || perTenant[j.Tenant] >= sched.tenantQuota() {
				continue
			}
			if best < 0 || j.Priority > table[best].Priority ||
				(j.Priority == table[best].Priority && j.SubmittedAt.Before(table[best].SubmittedAt)) {
				best = i
			}
		}
		if best < 0 {
			break
		}
		table[best].State = StateRunning
		perTenant[table[best].Tenant]++
		out = append(out, table[best].ID)
	}
	return out
}

// TestAdmissionOrderMatchesScan: admission reads only the pending index,
// and every job it admits is the one a scan over List("") picks, through
// random submits (mixed priority, three tenants, many equal timestamps),
// pauses, resumes, cancels and commits, with a compaction and a reopen
// midway so the index is also rebuilt from a snapshot plus WAL suffix.
func TestAdmissionOrderMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	dir := t.TempDir()
	sched := SchedOptions{MaxRunning: 2, TenantQuota: 1}
	clk := &frozenClock{t: time.Unix(0, 1)}
	var admitted []string // jobs logged RUNNING, in log order
	onAppend := func(typ byte, _ uint64, payload []byte) {
		var tr stateRecord
		if recType(typ) == recState && json.Unmarshal(payload, &tr) == nil && tr.To == StateRunning {
			admitted = append(admitted, tr.ID)
		}
	}
	start := func() *Service {
		store, err := Open(dir, StoreOptions{NoSync: true, Clock: clk, OnAppend: onAppend})
		if err != nil {
			t.Fatal(err)
		}
		exec := &fakeExec{name: "manual", tn: core.Tuning{MinBatch: 64, Throughput: 1e6}}
		svc := NewService(store, []Executor{exec}, Options{Sched: sched, MaxLease: 5})
		if err := svc.StartManual(context.Background()); err != nil {
			t.Fatal(err)
		}
		return svc
	}
	svc := start()
	defer func() { svc.Shutdown(context.Background()) }()

	pick := func(states ...State) (string, bool) {
		var ids []string
		for _, j := range svc.List("") {
			if slices.Contains(states, j.State) {
				ids = append(ids, j.ID)
			}
		}
		if len(ids) == 0 {
			return "", false
		}
		return ids[rng.Intn(len(ids))], true
	}
	const ops = 400
	total := 0
	for op := 0; op < ops; op++ {
		if op == ops/2 {
			if err := svc.store.Compact(); err != nil {
				t.Fatal(err)
			}
			if err := svc.Shutdown(context.Background()); err != nil {
				t.Fatal(err)
			}
			svc = start()
		}
		switch r := rng.Intn(10); {
		case r < 3:
			if rng.Intn(3) == 0 {
				clk.t = clk.t.Add(time.Nanosecond) // otherwise the new job ties the last
			}
			if _, err := svc.Submit(fmt.Sprintf("t%d", rng.Intn(3)), rng.Intn(3), testSpec()); err != nil {
				t.Fatal(err)
			}
		case r == 3:
			if id, ok := pick(StatePending, StateRunning); ok {
				if _, err := svc.Pause(id); err != nil {
					t.Fatal(err)
				}
			}
		case r == 4:
			if id, ok := pick(StatePaused); ok {
				if _, err := svc.Resume(id); err != nil {
					t.Fatal(err)
				}
			}
		case r == 5:
			if id, ok := pick(StatePending, StateRunning, StatePaused); ok {
				if _, err := svc.Cancel(id, "test"); err != nil {
					t.Fatal(err)
				}
			}
		default:
			want := scanAdmit(svc.List(""), sched)
			admitted = admitted[:0]
			l, ok := svc.TryLease(0)
			if !slices.Equal(admitted, want) {
				t.Fatalf("op %d: admitted %v, table scan picks %v", op, admitted, want)
			}
			total += len(admitted)
			if ok && !svc.Commit(l, &dispatch.Report{Tested: l.N}) {
				t.Fatalf("op %d: commit of lease %d refused", op, l.ID)
			}
		}
	}
	if total < 20 {
		t.Fatalf("only %d admissions in %d ops; the sequence does not exercise admission", total, ops)
	}
}

// BenchmarkAdmitLargeTable times one job through the service (Submit,
// the TryLease that admits it, the Commit that finishes it) beside a
// table already holding `terminal` cancelled jobs. Admission reads the
// pending index, so the two sizes should cost about the same.
func BenchmarkAdmitLargeTable(b *testing.B) {
	for _, terminal := range []int{100, 10000} {
		b.Run(fmt.Sprintf("terminal=%d", terminal), func(b *testing.B) {
			store, err := Open(b.TempDir(), StoreOptions{NoSync: true})
			if err != nil {
				b.Fatal(err)
			}
			for range terminal {
				j, err := store.Submit("old", 0, testSpec())
				if err != nil {
					b.Fatal(err)
				}
				if _, err := store.SetState(j.ID, StateCancelled, ""); err != nil {
					b.Fatal(err)
				}
			}
			exec := &fakeExec{name: "bench", tn: core.Tuning{MinBatch: 64, Throughput: 1e6}}
			svc := NewService(store, []Executor{exec}, Options{})
			if err := svc.StartManual(context.Background()); err != nil {
				b.Fatal(err)
			}
			defer svc.Shutdown(context.Background())
			runtime.GC() // collect the set-up's garbage outside the timed loop
			b.ResetTimer()
			for range b.N {
				if _, err := svc.Submit("t", 0, testSpec()); err != nil {
					b.Fatal(err)
				}
				l, ok := svc.TryLease(0)
				if !ok || l.N != 14 {
					b.Fatalf("lease %+v (ok %v), want one lease over the whole 14-key job", l, ok)
				}
				if !svc.Commit(l, &dispatch.Report{Tested: l.N}) {
					b.Fatalf("commit of lease %d refused", l.ID)
				}
			}
		})
	}
}
