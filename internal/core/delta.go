package core

import (
	"h2o/internal/exec"
	"h2o/internal/query"
	"h2o/internal/storage"
)

// DeltaScan is the product of one Engine.QueryDelta call: the freshly
// rescanned segment partials, the indices of the candidate segments whose
// cached partials the caller may keep (their versions matched), the touch
// fingerprint of the state the scan observed, and the scan counters. The
// fingerprint is computed under the same read lock the scan held, so a
// result assembled as Repaired(prior, Fresh, Reused).Result() is exactly
// consistent with it — the serving layer publishes under it.
type DeltaScan struct {
	// Fresh holds one partial per rescanned candidate segment — a suffix
	// partial (SegPartial.Base set) for a segment that only grew.
	Fresh *exec.PartialResult
	// Reused lists the candidate segment indices whose versions matched the
	// caller's have vector: their cached partials are still exact.
	Reused []int
	// Fingerprint identifies the candidate set and versions the scan
	// observed, under the lock it held.
	Fingerprint TouchFingerprint
	// Layout is the relation's layout kind at scan time (reporting only).
	Layout storage.LayoutKind
	// Stats carries the scan counters; only rescanned segments count as
	// scanned/touched.
	Stats exec.StrategyStats
}

// QueryDelta answers a repairable query (every select item a decomposable
// aggregate, no LIMIT — exec.Repairable) by rescanning only the candidate
// segments whose versions differ from the caller's have vector, under the
// shared read lock. have maps segment index to the version the caller's
// cached partials were computed at (nil rescans every candidate — the cold
// seed of a partials cache), and must be prior.Versions() of the payload
// later passed to exec.Repaired: a segment that only grew since comes back
// as a suffix partial that Repaired folds into prior's partial. The diff runs under the same lock as the scan
// and the returned fingerprint, so a mutation can never slip between them:
// the assembled result is always consistent with DeltaScan.Fingerprint,
// even when that differs from whatever fingerprint the caller admitted
// against.
//
// ok=false tells the caller to take the full Execute path instead. That
// happens when the query is not repairable, and — in adaptive mode — when
// the monitoring window is due for an adaptation phase or a pending layout
// proposal covers the query: both need the exclusive lock that Execute
// takes, so deferring to it keeps the adaptive machinery running even under
// a repair-heavy workload. Delta scans do observe the monitoring window
// (the workload signal stays honest) but never run adaptation themselves;
// like result-cache hits, they also skip selectivity recording, which only
// materializing queries feed anyway.
func (e *Engine) QueryDelta(q *query.Query, have map[int]uint64) (ds *DeltaScan, ok bool, err error) {
	ds, ok, err = e.queryDelta(q, have)
	// The rescan may have paged spilled segments in; re-enforce the memory
	// budget only after the scan's lock is released, exactly as Execute's
	// epilogue does.
	if ok {
		e.EnforceBudget()
	}
	return ds, ok, err
}

// queryDelta is QueryDelta without the budget-enforcement epilogue.
func (e *Engine) queryDelta(q *query.Query, have map[int]uint64) (*DeltaScan, bool, error) {
	if !exec.Repairable(q) {
		return nil, false, nil
	}
	if e.opts.Mode == ModeAdaptive {
		info := query.InfoOf(q)
		e.stateMu.Lock()
		// Defer to Execute when the adaptive machinery wants the exclusive
		// lock: an adaptation phase is due (from previously observed
		// queries), or a pending proposal covers this query and has not been
		// declined for its pattern yet. Otherwise observe the query here so
		// the window keeps seeing the workload; if this observation makes
		// adaptation due, the *next* query falls back and runs the phase.
		fallback := e.win.SinceAdaptation() >= e.win.Size()
		if !fallback {
			if _, turned := e.declined[info.Pattern()]; !turned {
				fallback = e.pendingCoversLocked(q.AllAttrs())
			}
		}
		if !fallback {
			e.win.Observe(info)
			e.stats.Queries++
		}
		e.stateMu.Unlock()
		if fallback {
			return nil, false, nil
		}
	} else {
		e.stateMu.Lock()
		e.stats.Queries++
		e.stateMu.Unlock()
	}

	ds, err := e.scanPartials(q, have)
	if err == exec.ErrUnsupported {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, err
	}
	return ds, true, nil
}

// ScanPartials is the unconditional partial scan: every candidate segment
// of the repairable query q, bypassing the adaptive gate that can make
// QueryDelta decline. The shard router's terminal fallback, after the full
// path has had its chance to run a pending adaptation. Like QueryDelta it
// re-enforces the memory budget once the scan's lock is released.
func (e *Engine) ScanPartials(q *query.Query) (*DeltaScan, error) {
	ds, err := e.scanPartials(q, nil)
	e.EnforceBudget()
	return ds, err
}

// scanPartials is the locked scan section QueryDelta and ScanPartials
// share: rescan the candidate segments whose versions differ from have
// (nil: all of them) under the shared read lock.
func (e *Engine) scanPartials(q *query.Query, have map[int]uint64) (*DeltaScan, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	ds := &DeltaScan{}
	// Rescans fan out like any other scan: the usual one-changed-tail
	// repair stays serial, a cold seed of a large relation uses the
	// configured intra-query parallelism.
	fresh, reused, err := exec.ExecDelta(e.rel, q, have, e.opts.Parallelism, &ds.Stats)
	if err != nil {
		return nil, err
	}
	ds.Fresh = fresh
	ds.Reused = reused
	// Under the very lock the scan held: the fingerprint names exactly the
	// state the partials were read from.
	ds.Fingerprint = TouchFingerprintOf(e.rel, q)
	ds.Layout = e.rel.Kind()
	// Keep group recency honest — a repair reads covering groups just like
	// a full scan would, and MaxGroups eviction must not starve them.
	e.touchGroups(q)
	return ds, nil
}
