// Package server is the concurrent serving layer on top of the H2O engines:
// it turns the single-process adaptive store into something that can sit
// behind many simultaneous clients.
//
// # The worker pool
//
// Queries are admitted into a fixed-depth queue and executed by a fixed
// number of workers, so a burst of clients degrades into queueing latency
// instead of unbounded goroutine and memory growth. Admission and the wait
// for a result both honor context cancellation: a client that gives up
// while its query is still queued costs nothing — the worker skips
// canceled jobs.
//
// # The three-tier admission path
//
// Every select is fingerprinted on admission (core.TouchFingerprint): the
// query's predicates are pruned against each segment's zone maps — no data
// access, no disk I/O even when segments are spilled — and the surviving
// *candidate set* is digested together with those segments' versions. The
// fingerprint itself is memoized per (table, normalized query) at the
// backend's per-table relation version (Backend.Version), so hot patterns
// skip even the zone-map walk (Stats.MemoHits);
// versions come from a process-wide monotone clock and are never reused,
// which makes the memo self-invalidating — a stale entry's version simply
// cannot recur. The admitted query then falls through three tiers:
//
//  1. Exact hit. The sharded LRU result cache is addressed by (table,
//     normalized query, fingerprint). An entry is addressable exactly
//     while every segment that could contribute rows is unchanged, so
//     invalidation is proportional to what a mutation actually touched: a
//     tail append strands only entries whose queries read the tail, an
//     incremental reorganization only entries over the reorganized
//     segments, and tiered-storage spill/fault cycles nothing at all. The
//     hit is returned without consuming a queue slot.
//
//  2. Delta repair. On a miss, a *repairable* query — every select item a
//     decomposable aggregate (count/sum/min/max/avg), no LIMIT; see
//     exec.Repairable — consults a second, byte-budgeted cache of
//     per-segment partial aggregates, keyed by (table, normalized query)
//     only: the payload deliberately outlives the fingerprint that
//     stranded the result. A worker diffs the payload's segment-version
//     vector against the live relation under the engine's read lock
//     (Backend.ExecDelta), rescans only the changed or new candidate
//     segments — of a segment that only grew, only the appended rows —
//     and re-combines with the retained partials: O(changed rows) instead
//     of O(candidate set). Repeat aggregates over a tail-append workload
//     therefore cost one suffix scan each (Stats.Repaired,
//     Stats.RepairedSegments; ExecInfo.RepairedSegments per query). A
//     query counts as repaired when it reused a cached partial or
//     extended one by a suffix. An aggregate or grouped single equi-join
//     (exec.JoinRepairable) takes the same tier: its payload holds
//     per-probe-segment partials plus the build side's segment versions,
//     so a probe-side append folds only the appended rows. A miss with no
//     payload still routes here: the full partial scan that answers it
//     seeds the payload for every later repair. The backend may decline
//     (its adaptation machinery wants the exclusive lock this round), in
//     which case the job falls through.
//
//  3. Full execution. Everything else runs the backend's complete path —
//     monitoring, adaptation, online reorganization, cost-based strategy
//     choice — exactly as a direct engine call would.
//
// # Publish-time fingerprint comparison
//
// Tiers 2 and 3 both publish under the fingerprint the execution observed
// (computed by the engine while it still held the lock the scan ran
// under). If no relevant mutation landed since admission the fingerprints
// coincide and the entry lands under the admission key; if a mutation
// touched candidate segments mid-flight, the result — a consistent
// snapshot of the newer state — is republished under the execution-time
// key, where the very next identical query finds it (Stats.Republished).
// Only results with no fingerprint at all (Stats.Uncacheable) go
// unpublished. Repairs publish twice: the combined result into the result
// cache, and the refreshed partials payload — retained partials plus the
// freshly rescanned ones — into the partials cache, replacing the stale
// payload wholesale (payloads are immutable once published, so readers
// never race the replacement).
//
// # What still invalidates globally
//
// Mutations that advance every candidate segment at once — relation-wide
// group add/drop by offline tools — and table replacement. Segment and
// relation versions share one process-wide monotone clock and each
// relation carries a process-unique identity mixed into every fingerprint,
// so replacing a table (reload, re-registration) can never resurrect
// entries cached against its predecessor, even for degenerate queries
// whose candidate set is empty. The same argument covers the fingerprint
// memo and the partials payloads: a predecessor's versions can never be
// observed again.
//
// The package deliberately knows nothing about SQL or the catalog: it
// executes logical queries against a Backend — the h2o.DB facade for a
// catalog, TableBackend for one core.Table (an engine or a shard router).
// Every tier is on unless Config turns it off.
package server
