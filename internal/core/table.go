package core

import (
	"h2o/internal/data"
	"h2o/internal/exec"
	"h2o/internal/query"
)

// Table is the contract of one logical table: a single Engine, or a
// scatter-gather router over per-shard engines (internal/shard). The
// h2o.DB catalog holds one per registered name, and server.TableBackend
// serves one directly, so every layer above works unchanged over either.
type Table interface {
	// Execute runs one query to completion through the full adaptive path.
	Execute(q *query.Query) (*exec.Result, ExecInfo, error)
	// QueryFingerprint is q's candidate-touch fingerprint against the
	// current state: zone maps and version counters only, no data access.
	QueryFingerprint(q *query.Query) TouchFingerprint
	// QueryDelta rescans only the candidate segments whose versions differ
	// from have; ok=false defers to Execute.
	QueryDelta(q *query.Query, have map[int]uint64) (*DeltaScan, bool, error)
	Insert(tuples [][]data.Value) error
	// Version is the relation-wide mutation counter: monotone, never
	// reused, cheap enough to read on every admission.
	Version() uint64
	SegmentVersions() []uint64
	TierStats() TierStats
	LayoutSignature() string
	Close()
}

var _ Table = (*Engine)(nil)
