// Package jobs is the multi-tenant job service: it multiplexes many
// concurrent exhaustive-search jobs over a single dispatch fleet, where
// the paper's system (Section IV) runs exactly one search per master
// process — which is the service with one job, and how cmd/keymaster
// runs it. It is the one scheduler that owns a TCP worker
// (netproto.Executor) and the one place a search's remaining set is made
// durable.
//
// Three layers:
//
//   - Store (store.go, wal.go): a persistent job table backed by an
//     append-only write-ahead log of CRC-framed records (job submitted,
//     state transition, checkpoint blob) with snapshot compaction and
//     crash-recovery replay. Every committed lease appends a
//     dispatch.Checkpoint for its job before the result is acknowledged,
//     so a kill -9 of the server loses no completed work: on restart each
//     RUNNING job resumes from its last checkpoint and only its in-flight
//     leases are re-searched.
//
//   - Scheduler (scheduler.go): priority + weighted fair share across
//     tenants. Executors pull leases; each lease is carved from the
//     winning job's remaining keyspace and sized by the paper's balance
//     rule N_j = N_max·(X_j/X_max) over the executor throughputs measured
//     by the tuning step. Admission control caps concurrently running
//     jobs globally and per tenant; preemption happens at chunk
//     boundaries — a lease always runs to completion, but the next lease
//     of a slot goes to whichever job the weighted deficit picks.
//
//   - Service + HTTP API (service.go, http.go): job lifecycle
//     (submit, pause, resume, cancel), server-sent progress events, and
//     graceful shutdown (stop admitting, drain in-flight leases,
//     checkpoint, flush the WAL). The API mounts in cmd/keymaster beside
//     the -status endpoint; cmd/keyjob is the client.
//
// Exactness is the package invariant, extending the dispatcher's
// partition property to persistence: for every job, at every point in
// the WAL, tested + remaining equals the job's keyspace, committed
// leases tile the space exactly once, and no crash/restart schedule can
// lose or double-count an interval.
package jobs
