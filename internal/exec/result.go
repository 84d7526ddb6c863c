// Package exec implements H2O's execution strategies (paper §3.3) as
// per-segment streaming operator pipelines behind one entry point:
//
//	Exec(rel, q, ExecOpts{Strategy, Workers, HotMask, Stats, ...})
//
// Every strategy — the volcano-style fused row scan with predicate
// push-down, column-at-a-time late materialization, the hybrid
// group-of-columns strategy, the generic tuple-at-a-time interpreter
// (§3.4, Fig. 14), the encoded-direct block kernel, and the
// online-reorganization executor that creates a new layout while
// answering the query (§3.2, Fig. 13) — is a pipeline of the same three
// stages:
//
//	SegSource ──► Filter ──► Project / Aggregate / Group ──► merge
//	(prune → pin/fault →     (one *partial* per segment)     (segment
//	 covering-group                                           order)
//	 resolve, per segment)
//
// The SegSource policy lives once in the pipeline driver (exec.go): empty
// segments are skipped, segments whose zone maps rule the conjunctive
// predicates out are pruned without touching a row or disk, survivors are
// pinned at the pipeline's residency tier (flat, or encoded-or-better for
// the encoded pipeline), touched and counted into StrategyStats. Each
// strategy contributes only its per-segment operator — a pure
// segment → partial function — so the driver runs any pipeline serially
// or fanned out across ExecOpts.Workers goroutines with a shared claim
// loop, and LIMIT pushes down uniformly: the driver stops consuming
// segments once a contiguous prefix satisfies q.Limit, serial and
// parallel alike. Joins and shard-local execution attach at the same
// seam: a join is another partial-producing operator stage, a shard is a
// remote SegSource feeding the same merge. The join filters both sides
// with the same selection-vector kernels, indexes the build side with a
// dense or hashed key directory, and reads joined attributes by position.
// It interprets only per-side predicates that do not split and the
// mixed-side residual.
//
// All strategies materialize their output row-major in a contiguous block,
// as the paper requires ("all execution strategies materialize the output
// results in memory using contiguous memory blocks in a row-major layout").
//
// The strategies registry (exec.go) is the single source of truth for the
// strategy set: pipeline builders, cost-model segment plans (cost.go),
// the cost-based chooser's candidate list and the operator generator's
// template set all derive from it, so they agree by construction.
//
// # Aggregates, segments and partial results
//
// Every aggregate output folds through one accumulator (grouped.go): a
// key directory hands out group ids, typed int64 arrays hold the states,
// and each strategy filters rows and builds argument values its own way,
// then folds them one VectorSize chunk at a time. A scalar aggregate is
// the group with no keys. Accumulators merge associatively across
// segments — the property the fan-out uses to stay bit-identical to the
// serial scan, and that the partial-result layer (partials.go) makes
// durable: for *repairable* queries (every select item a decomposable
// aggregate or a group-by key, no LIMIT — see Repairable), ExecPartials
// keeps each candidate segment's states as a versioned SegPartial, and
// ExecDelta later rescans only the segments whose versions moved (through
// the same claim loop), re-combining with the retained partials. Each
// rescan picks the segment's operator the way the pipelines do — encoded
// blocks, the fused single-group kernel, the hybrid selection-vector
// kernel — and falls back to the generic interpreter only for predicates
// no kernel serves (see segmentPartial). The serving layer's delta repair,
// and the O(changed segments) repair cost it buys, rest entirely on that
// contract; the partials contract at the top of partials.go spells out
// which aggregates decompose and why LIMIT disqualifies repair.
//
// Grouped results materialize one row per group ordered ascending by key
// vector — an order-preserving key encoding makes the sort a plain string
// sort — so they are bit-identical across strategies and the repair path,
// and LIMIT on a grouped query is a deterministic prefix of groups applied
// after the merge. A scalar result is always exactly one row.
package exec

import (
	"fmt"

	"h2o/internal/data"
)

// Result is a query result materialized row-major.
type Result struct {
	Cols []string     // output column labels
	Rows int          // number of result rows
	Data []data.Value // len = Rows * len(Cols), row-major
}

// Width returns the number of output columns.
func (r *Result) Width() int { return len(r.Cols) }

// At returns the value at result row i, column j.
func (r *Result) At(i, j int) data.Value { return r.Data[i*len(r.Cols)+j] }

// Row returns result row i as a slice view.
func (r *Result) Row(i int) []data.Value {
	w := len(r.Cols)
	return r.Data[i*w : (i+1)*w]
}

// String summarizes the result shape.
func (r *Result) String() string {
	return fmt.Sprintf("result %d rows × %d cols", r.Rows, len(r.Cols))
}

// Equal reports whether two results hold identical data. Experiment and test
// code uses it to check that every strategy computes the same answer.
func (r *Result) Equal(o *Result) bool {
	if r.Rows != o.Rows || len(r.Cols) != len(o.Cols) || len(r.Data) != len(o.Data) {
		return false
	}
	for i, v := range r.Data {
		if o.Data[i] != v {
			return false
		}
	}
	return true
}

// VectorSize is the number of rows an aggregate fold processes per chunk;
// chunk buffers of this size stay L1-resident ("vectors fit in the L1
// cache for better cache locality", §3.3).
const VectorSize = 1024
