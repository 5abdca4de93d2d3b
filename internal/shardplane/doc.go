// Package shardplane scales the job-service control plane past one
// master by applying the paper's dispatcher-tree pattern to the
// control plane itself: a front-end router over N independent
// jobs.Service shards, each optionally shadowed by a warm replicated
// follower.
//
// Three layers:
//
//   - Sharding (ring.go): tenants are partitioned across shards by a
//     consistent-hash ring with virtual nodes. Placement is a pure
//     function of (seed, shard names, tenant), so every router and
//     shard that holds the same ring encoding — verified by its
//     content-address ID — agrees on ownership without coordination,
//     and adding a shard moves only the hash-minimal tenant set.
//
//   - Replication (feed.go, repl.go, link.go): each shard's WAL is
//     streamed to a follower in internal/frame's CRC frames — one
//     full snapshot to establish the watermark, then live records in
//     strict sequence order, acked back as a watermark. Torn or
//     reordered frames are refused. The follower lands bytes in the
//     standard store layout, so promotion is the store's ordinary
//     crash recovery and inherits every exactly-once invariant the
//     single-master kill -9 suites prove.
//
//   - Routing (plane.go, router.go): the router speaks the existing
//     HTTP job API unchanged — cmd/keyjob works against it with no
//     client changes. Submissions go to the owning shard; list,
//     status, and SSE queries fan out and merge across all shards.
//
// All time flows through sim.Clock, so shard failure and follower
// promotion are rehearsable in virtual time (internal/fleetsim's
// failover rehearsal) as well as under real SIGKILL in the
// multi-process promotion test.
package shardplane
