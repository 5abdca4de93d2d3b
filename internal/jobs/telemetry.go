package jobs

import (
	"sync"

	"keysearch/internal/telemetry"
)

// storeTelemetry caches the persistence-layer metric handles. Every
// field is nil when telemetry is disabled; the telemetry package's
// nil-receiver methods make each update a single branch.
type storeTelemetry struct {
	appends   *telemetry.Counter   // WAL records written
	bytes     *telemetry.Counter   // WAL bytes written
	fsync     *telemetry.Histogram // per-append fsync latency, ns
	replayed  *telemetry.Counter   // records replayed at open
	snapshots *telemetry.Counter   // snapshot compactions
}

func newStoreTelemetry(reg *telemetry.Registry) *storeTelemetry {
	st := &storeTelemetry{}
	if reg == nil {
		return st
	}
	st.appends = reg.Counter(telemetry.MetricJobsWALAppends)
	st.bytes = reg.Counter(telemetry.MetricJobsWALBytes)
	st.fsync = reg.Histogram(telemetry.MetricJobsWALFsync)
	st.replayed = reg.Counter(telemetry.MetricJobsWALReplayed)
	st.snapshots = reg.Counter(telemetry.MetricJobsSnapshots)
	return st
}

// serviceTelemetry caches the scheduler/lifecycle metric handles plus
// per-tenant counters (created on first use, cached so the lease path
// pays the registry map lookup once per tenant).
type serviceTelemetry struct {
	reg *telemetry.Registry

	submitted   *telemetry.Counter
	completed   *telemetry.Counter
	failed      *telemetry.Counter
	cancelled   *telemetry.Counter
	queueDepth  *telemetry.Gauge
	running     *telemetry.Gauge
	leases      *telemetry.Counter
	leaseLen    *telemetry.Histogram
	preempted   *telemetry.Counter
	requeues    *telemetry.Counter
	requeued    *telemetry.Counter // keys, where requeues and expired count leases
	expired     *telemetry.Counter
	steals      *telemetry.Counter
	stolenKeys  *telemetry.Counter
	lateCommits *telemetry.Counter
	schedWait   *telemetry.Histogram
	totalServed uint64 // committed keys across tenants (share denominator)

	mu      sync.Mutex
	tenants map[string]*tenantTelemetry
}

type tenantTelemetry struct {
	served *telemetry.Counter
	share  *telemetry.Gauge
	keys   uint64
}

func newServiceTelemetry(reg *telemetry.Registry) *serviceTelemetry {
	st := &serviceTelemetry{reg: reg, tenants: make(map[string]*tenantTelemetry)}
	if reg == nil {
		return st
	}
	st.submitted = reg.Counter(telemetry.MetricJobsSubmitted)
	st.completed = reg.Counter(telemetry.MetricJobsCompleted)
	st.failed = reg.Counter(telemetry.MetricJobsFailed)
	st.cancelled = reg.Counter(telemetry.MetricJobsCancelled)
	st.queueDepth = reg.Gauge(telemetry.MetricJobsQueueDepth)
	st.running = reg.Gauge(telemetry.MetricJobsRunning)
	st.leases = reg.Counter(telemetry.MetricJobsLeases)
	st.leaseLen = reg.Histogram(telemetry.MetricJobsLeaseLen)
	st.preempted = reg.Counter(telemetry.MetricJobsPreempted)
	st.requeues = reg.Counter(telemetry.MetricJobsRequeues)
	st.requeued = reg.Counter(telemetry.MetricJobsRequeuedKeys)
	st.expired = reg.Counter(telemetry.MetricJobsExpired)
	st.steals = reg.Counter(telemetry.MetricJobsSteals)
	st.stolenKeys = reg.Counter(telemetry.MetricJobsStolenKeys)
	st.lateCommits = reg.Counter(telemetry.MetricJobsLateCommits)
	st.schedWait = reg.Histogram(telemetry.MetricJobsSchedLatency)
	return st
}

// tenant returns (creating on first use) the per-tenant handles.
func (st *serviceTelemetry) tenant(name string) *tenantTelemetry {
	st.mu.Lock()
	defer st.mu.Unlock()
	tt, ok := st.tenants[name]
	if !ok {
		tt = &tenantTelemetry{}
		if st.reg != nil {
			tt.served = st.reg.Counter(telemetry.PerTenant(telemetry.MetricJobsTenantServed, name))
			tt.share = st.reg.Gauge(telemetry.PerTenant(telemetry.MetricJobsTenantShare, name))
		}
		st.tenants[name] = tt
	}
	return tt
}

// committed records n committed keys for the tenant and refreshes every
// tenant's share gauge.
func (st *serviceTelemetry) committed(tenant string, n uint64) {
	tt := st.tenant(tenant)
	tt.served.Add(n)
	st.mu.Lock()
	tt.keys += n
	st.totalServed += n
	total := st.totalServed
	for _, t := range st.tenants {
		if total > 0 {
			t.share.Set(float64(t.keys) / float64(total))
		}
	}
	st.mu.Unlock()
}
