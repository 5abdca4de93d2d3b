package jobs

import (
	"sort"
	"time"

	"keysearch/internal/dispatch"
)

// SchedOptions tune admission control and fair share.
type SchedOptions struct {
	// MaxRunning caps jobs in StateRunning at once (admission control);
	// 0 means 4.
	MaxRunning int
	// TenantQuota caps running jobs per tenant; 0 means MaxRunning.
	TenantQuota int
	// Weights sets per-tenant fair-share weights; absent tenants weigh
	// 1. A tenant with weight 2 is issued twice the keys per unit time
	// of a weight-1 tenant while both have runnable work.
	Weights map[string]float64
}

func (o SchedOptions) maxRunning() int {
	if o.MaxRunning <= 0 {
		return 4
	}
	return o.MaxRunning
}

func (o SchedOptions) tenantQuota() int {
	if o.TenantQuota <= 0 {
		return o.maxRunning()
	}
	return o.TenantQuota
}

// scheduler picks which job gets the next lease: weighted deficit
// (stride) scheduling across tenants, strict priority then FIFO within
// a tenant. Each issued lease charges the tenant's deficit by
// keys/weight, so over any window where two tenants both stay
// runnable, their committed keys converge to the ratio of their
// weights regardless of job sizes or priorities.
//
// The scheduler is not safe for concurrent use; the Service serializes
// access under its own mutex.
type scheduler struct {
	opts   SchedOptions
	served map[string]float64 // per-tenant deficit, in weighted keys
}

func newScheduler(opts SchedOptions) *scheduler {
	return &scheduler{opts: opts, served: make(map[string]float64)}
}

func (sc *scheduler) weight(tenant string) float64 {
	if w, ok := sc.opts.Weights[tenant]; ok && w > 0 {
		return w
	}
	return 1
}

// admit reinitializes a tenant's deficit when it (re)enters the
// runnable set: a tenant that sat idle keeps no banked credit, so it
// cannot monopolize the executors on return (classic stride-scheduling
// pass reset).
func (sc *scheduler) admit(tenant string, runnable []string) {
	floor := 0.0
	first := true
	for _, t := range runnable {
		if t == tenant {
			continue
		}
		if d := sc.served[t]; first || d < floor {
			floor, first = d, false
		}
	}
	if first {
		return // no other runnable tenant; keep the current deficit
	}
	if sc.served[tenant] < floor {
		sc.served[tenant] = floor
	}
}

// charge records n keys issued to the tenant.
func (sc *scheduler) charge(tenant string, n uint64) {
	sc.served[tenant] += float64(n) / sc.weight(tenant)
}

// credit refunds a lease that never completed (executor failure put the
// interval back), so a tenant is only ever charged for committed work.
func (sc *scheduler) credit(tenant string, n uint64) {
	sc.served[tenant] -= float64(n) / sc.weight(tenant)
	if sc.served[tenant] < 0 {
		sc.served[tenant] = 0
	}
}

// pick returns the runnable job the next lease goes to: the
// min-deficit tenant, then its highest-priority, oldest job. Returns
// nil when nothing is runnable.
func (sc *scheduler) pick(runnable []*activeJob) *activeJob {
	if len(runnable) == 0 {
		return nil
	}
	byTenant := make(map[string][]*activeJob)
	for _, a := range runnable {
		byTenant[a.tenant] = append(byTenant[a.tenant], a)
	}
	tenants := make([]string, 0, len(byTenant))
	for t := range byTenant {
		tenants = append(tenants, t)
	}
	sort.Strings(tenants) // deterministic tie-break
	best := tenants[0]
	for _, t := range tenants[1:] {
		if sc.served[t] < sc.served[best] {
			best = t
		}
	}
	jobs := byTenant[best]
	sort.Slice(jobs, func(i, j int) bool {
		if jobs[i].priority != jobs[j].priority {
			return jobs[i].priority > jobs[j].priority
		}
		if !jobs[i].subAt.Equal(jobs[j].subAt) {
			return jobs[i].subAt.Before(jobs[j].subAt)
		}
		return jobs[i].id < jobs[j].id
	})
	return jobs[0]
}

// activeJob is the lifecycle's state for one schedulable job: the lease
// table built from its last checkpoint (unissued pool plus live leases)
// and the progress accumulated since recovery.
type activeJob struct {
	id       string
	tenant   string
	priority int
	spec     Spec
	subAt    time.Time

	leases  *dispatch.Table[leaseState]
	tested  uint64
	found   [][]byte
	sinceCP int // commits applied since the last durable checkpoint
	// unflushed counts the leases settled in memory and not yet through
	// their flush.
	unflushed int

	// stopLeasing marks a job that must issue no further leases
	// (paused, cancelled, done, or failed); the entry is dropped once
	// the in-flight leases drain.
	stopLeasing bool
}

// runnable reports whether the job can receive a lease now.
func (a *activeJob) runnable() bool {
	return !a.stopLeasing && a.leases.Leasable()
}

// quotaMet reports whether the job found the solutions it asked for.
func (a *activeJob) quotaMet() bool {
	return a.spec.MaxSolutions > 0 && len(a.found) >= a.spec.MaxSolutions
}
