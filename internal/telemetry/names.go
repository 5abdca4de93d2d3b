package telemetry

// Conventional metric names of the pipeline. Per-entity variants append
// "." plus the entity name (PerNode). Packages own their updates; the
// names live here so producers (dispatch, netproto, core), consumers
// (status logger, keybench) and the README's schema section agree.
const (
	// Dispatcher (internal/dispatch): real-time coarse-grain dispatch.
	MetricDispatchTested   = "dispatch.tested"    // counter: identifiers gathered (exact coverage)
	MetricDispatchRetested = "dispatch.retested"  // counter: identifiers re-dispatched after a requeue
	MetricDispatchRequeues = "dispatch.requeues"  // counter: requeue incidents
	MetricDispatchRate     = "dispatch.rate"      // meter: gathered identifiers/s (windowed)
	MetricDispatchChunks   = "dispatch.chunks"    // counter (per worker): chunks gathered
	MetricDispatchRound    = "dispatch.round_ns"  // histogram (per worker): search round latency, ns
	MetricDispatchChunkLen = "dispatch.chunk_len" // histogram (per worker): issued chunk size, keys
	MetricDispatchShare    = "dispatch.share"     // gauge (per worker): balanced chunk size N_j
	MetricDispatchXj       = "dispatch.x"         // gauge (per worker): tuned throughput X_j, keys/s

	// Transport (internal/netproto).
	MetricNetFramesSent = "net.frames_sent" // counter: frames written
	MetricNetFramesRecv = "net.frames_recv" // counter: frames read
	MetricNetPings      = "net.pings"       // counter: pings sent (master) / received (worker)
	MetricNetPongs      = "net.pongs"       // counter: pongs received (master) / sent (worker)
	MetricNetPingRTT    = "net.ping_rtt_ns" // histogram: ping round-trip time, ns
	MetricNetRetries    = "net.retries"     // counter: call retry attempts
	MetricNetReconnects = "net.reconnects"  // counter: worker rejoins bound to an existing identity
	MetricNetRequeues   = "net.requeues"    // counter: MsgRequeue frames (graceful hand-backs)
	MetricNetProgress   = "net.progress"    // counter: MsgProgress marks sent (worker) / applied (master)
	MetricNetShrinks    = "net.shrinks"     // counter: shrink handshakes honored (acked OK)

	// Fine-grain search loops (internal/core). Batched per chunk.
	MetricCoreTested = "core.tested" // counter: candidates evaluated locally
	MetricCoreRate   = "core.rate"   // meter: candidates/s (windowed)

	// Job service (internal/jobs): multi-tenant multiplexing of search
	// jobs over one fleet. Per-tenant variants append the tenant name
	// (PerTenant).
	MetricJobsSubmitted    = "jobs.submitted"        // counter: jobs accepted
	MetricJobsCompleted    = "jobs.completed"        // counter: jobs reaching DONE
	MetricJobsFailed       = "jobs.failed"           // counter: jobs reaching FAILED
	MetricJobsCancelled    = "jobs.cancelled"        // counter: jobs reaching CANCELLED
	MetricJobsQueueDepth   = "jobs.queue_depth"      // gauge: jobs waiting for admission
	MetricJobsRunning      = "jobs.running"          // gauge: jobs admitted and schedulable
	MetricJobsLeases       = "jobs.leases"           // counter: leases issued to executors
	MetricJobsLeaseLen     = "jobs.lease_len"        // histogram: issued lease size, keys
	MetricJobsPreempted    = "jobs.preempted"        // counter: chunk-boundary hand-offs to another job
	MetricJobsRequeues     = "jobs.requeues"         // counter: leases returned by failed executors
	MetricJobsRequeuedKeys = "jobs.requeued_keys"    // counter: keys in leases returned untested (failure, expiry, refused steal)
	MetricJobsExpired      = "jobs.lease_expired"    // counter: leases requeued by the lease timeout
	MetricJobsSteals       = "jobs.steals"           // counter: split-lease steals at chunk boundaries
	MetricJobsStolenKeys   = "jobs.stolen_keys"      // counter: keys moved from stragglers to thieves
	MetricJobsLateCommits  = "jobs.late_commits"     // counter: commits/fails rejected for dead leases
	MetricJobsSchedLatency = "jobs.sched_latency_ns" // histogram: executor-idle time between leases, ns
	MetricJobsTenantServed = "jobs.tenant_served"    // counter (per tenant): keys committed
	MetricJobsTenantShare  = "jobs.tenant_share"     // gauge (per tenant): fraction of committed keys
	MetricJobsWALAppends   = "jobs.wal_appends"      // counter: WAL records written
	MetricJobsWALBytes     = "jobs.wal_bytes"        // counter: WAL bytes written
	MetricJobsWALFsync     = "jobs.wal_fsync_ns"     // histogram: per-append fsync latency, ns
	MetricJobsWALReplayed  = "jobs.wal_replayed"     // counter: records replayed at open
	MetricJobsSnapshots    = "jobs.wal_snapshots"    // counter: snapshot compactions

	// Sharded control plane (internal/shardplane): router over N
	// independent job-service shards with warm replicated followers.
	// Per-shard variants append the shard name (PerNode).
	MetricShardSubmits       = "shardplane.submits"        // counter (per shard): submissions routed to the shard
	MetricShardFanouts       = "shardplane.fanouts"        // counter: list/get/lifecycle fan-out queries
	MetricShardEvents        = "shardplane.events"         // counter: SSE events merged across shards
	MetricShardReplFrames    = "shardplane.repl_frames"    // counter: replication frames shipped
	MetricShardReplBytes     = "shardplane.repl_bytes"     // counter: replication payload bytes shipped
	MetricShardReplSnapshots = "shardplane.repl_snapshots" // counter: full-snapshot catch-ups sent
	MetricShardReplAcked     = "shardplane.repl_acked"     // gauge (per shard): follower's acked watermark
	MetricShardPromotions    = "shardplane.promotions"     // counter: followers promoted to master
)

// PerNode appends a node/worker name to a base metric name.
func PerNode(base, node string) string { return base + "." + node }

// PerTenant appends a tenant name to a base metric name (the job
// service's per-tenant fair-share metrics).
func PerTenant(base, tenant string) string { return base + "." + tenant }
