// Package advisor implements H2O's layout adaptation algorithm (paper §3.2):
// from the monitoring window's recent queries it derives candidate column
// groups — starting from the narrowest per-query attribute sets and
// progressively merging them — and evaluates configurations with
//
//	cost(W, Ci) = Σ_j qj(Ci) + T(Ci−1, Ci)                  (Eq. 1)
//
// using the cache-aware query cost model for qj and the bulk-copy model for
// the transformation term T. The package also provides an AutoPart-style
// offline vertical-partitioning baseline (Papadomanolakis & Ailamaki,
// SSDBM'04), which the paper extends and compares against in Figure 8.
package advisor

import (
	"fmt"
	"sort"

	"h2o/internal/costmodel"
	"h2o/internal/data"
	"h2o/internal/query"
	"h2o/internal/storage"
)

// Config tunes the advisor.
type Config struct {
	// MaxIterations bounds the merge loop ("the generation and selection
	// phases are repeated multiple times until no further improvement").
	MaxIterations int
	// MaxProposals caps how many new groups one adaptation phase may
	// propose; the paper's §4.1 run proposes 4.
	MaxProposals int
	// MinGainRatio is the minimum relative workload-cost improvement a
	// proposal must deliver (after paying its transformation cost over one
	// window) to be emitted. Guards against oscillation on marginal wins.
	MinGainRatio float64
	// EstSelectivity is the planning selectivity for windowed queries with
	// predicates.
	EstSelectivity float64
}

// DefaultConfig mirrors the paper's behavior.
func DefaultConfig() Config {
	return Config{
		MaxIterations:  8,
		MaxProposals:   4,
		MinGainRatio:   0.02,
		EstSelectivity: 0.5,
	}
}

// Proposal is one candidate column group the adaptation phase recommends.
// Proposals are lazy: the Data Layout Manager materializes one only when a
// query arrives that benefits from it (paper §3.2, "H2O follows a lazy
// approach to generate new data layouts").
type Proposal struct {
	Attrs []data.AttrID // sorted attribute set of the group
	// Gain is the expected reduction in window workload cost once the group
	// exists (excluding the transformation cost).
	Gain costmodel.Seconds
	// TransformBytes is the data volume reorganizing every segment that
	// lacks the group would move — the whole-relation upper bound. The
	// engine re-prices the hot subset per segment at trigger time.
	TransformBytes int64
	// SegmentBytes is the per-segment breakdown of TransformBytes (zero for
	// segments that already carry the group), letting the engine decide
	// "adapt the 3 hot segments now, leave the other 97" without
	// re-deriving the covering sets.
	SegmentBytes []int64
}

// String describes the proposal.
func (p Proposal) String() string {
	return fmt.Sprintf("group%v gain=%.3gs move=%dB", p.Attrs, float64(p.Gain), p.TransformBytes)
}

// Propose runs one adaptation phase: it evaluates the window's queries
// against the relation's current groups, generates candidate groups from the
// queries' select- and where-clause attribute sets, merges them while Eq. 1
// improves, and returns the accepted new groups ordered by decreasing gain.
func Propose(rel *storage.Relation, window []query.Info, m *costmodel.Model, cfg Config) []Proposal {
	if len(window) == 0 {
		return nil
	}
	if cfg.MaxIterations <= 0 {
		cfg.MaxIterations = DefaultConfig().MaxIterations
	}
	if cfg.MaxProposals <= 0 {
		cfg.MaxProposals = DefaultConfig().MaxProposals
	}
	if cfg.EstSelectivity <= 0 {
		cfg.EstSelectivity = DefaultConfig().EstSelectivity
	}

	ev := newEvaluator(rel, window, m, cfg)

	// Initial candidate pool: the narrowest groups — per-query select sets
	// and where sets, kept separate so predicate groups can serve
	// selection-vector plans (paper: "H2O considers attributes accessed
	// together in the select and the where clause as different potential
	// groups").
	pool := newCandidateSet()
	for _, info := range window {
		pool.add(info.Select)
		pool.add(info.Where)
		pool.add(info.All())
	}

	config := ev.currentSets()
	baseCost := ev.workloadCost(config)

	var accepted []Proposal
	for iter := 0; iter < cfg.MaxIterations && len(accepted) < cfg.MaxProposals; iter++ {
		// Selection phase: pick the candidate whose addition minimizes
		// Eq. 1.
		var best *Proposal
		var bestCand []data.AttrID
		for _, cand := range pool.items() {
			if len(cand) == 0 || ev.redundant(config, cand) {
				continue
			}
			withCost := ev.workloadCost(append(config, cand))
			gain := baseCost - withCost
			// The move is priced only for a gain that qualifies: with a
			// non-negative transform cost, any other gain fails anyway.
			if gain <= 0 || float64(gain) < cfg.MinGainRatio*float64(baseCost) {
				continue
			}
			segBytes, moveBytes := ev.transformBytes(cand)
			if gain-m.TransformCost(moveBytes) <= 0 {
				continue
			}
			if best == nil || gain > best.Gain {
				best = &Proposal{Attrs: cand, Gain: gain, TransformBytes: moveBytes, SegmentBytes: segBytes}
				bestCand = cand
			}
		}
		if best == nil {
			break
		}
		accepted = append(accepted, *best)
		config = append(config, bestCand)
		baseCost = ev.workloadCost(config)

		// Generation phase: merge the accepted group with the remaining
		// narrow candidates to form wider groups for the next iteration
		// ("new groups are generated by merging narrow groups with groups
		// generated in previous iterations").
		for _, other := range pool.items() {
			if data.IntersectCount(bestCand, other) > 0 {
				pool.add(data.Union(bestCand, other))
			}
		}
	}

	sort.Slice(accepted, func(i, j int) bool { return accepted[i].Gain > accepted[j].Gain })
	return accepted
}

// evaluator computes Eq. 1 terms against virtual configurations: attribute
// sets rather than materialized groups, so candidate evaluation never copies
// data.
type evaluator struct {
	rel    *storage.Relation
	window []query.Info
	m      *costmodel.Model
	cfg    Config
}

func newEvaluator(rel *storage.Relation, window []query.Info, m *costmodel.Model, cfg Config) *evaluator {
	return &evaluator{rel: rel, window: window, m: m, cfg: cfg}
}

// currentSets snapshots the layout common to every segment as attribute
// sets. Groups that exist only in some (hot) segments are deliberately not
// counted as existing, so a proposal covering them stays alive for the
// segments that still lack them.
func (ev *evaluator) currentSets() [][]data.AttrID {
	return ev.rel.CommonLayout()
}

// redundant reports whether the configuration already contains cand exactly.
func (ev *evaluator) redundant(config [][]data.AttrID, cand []data.AttrID) bool {
	for _, have := range config {
		if len(have) == len(cand) && data.ContainsAll(have, cand) {
			return true
		}
	}
	return false
}

// workloadCost sums the estimated execution cost of every window query under
// the given configuration (the Σ qj(Ci) term).
func (ev *evaluator) workloadCost(config [][]data.AttrID) costmodel.Seconds {
	var total costmodel.Seconds
	for _, info := range ev.window {
		total += ev.queryCost(info, config)
	}
	return total
}

// queryCost estimates one query's cost under a virtual configuration: greedy
// set cover of the query's attributes by configuration groups, each covered
// group costed as one Eq. 2 access.
func (ev *evaluator) queryCost(info query.Info, config [][]data.AttrID) costmodel.Seconds {
	need := info.All()
	sel := ev.cfg.EstSelectivity
	if len(info.Where) == 0 {
		sel = 1
	}
	var accesses []costmodel.GroupAccess
	remaining := append([]data.AttrID(nil), need...)
	for len(remaining) > 0 {
		bestIdx, bestCover := -1, 0
		for i, grp := range config {
			cover := data.IntersectCount(grp, remaining)
			if cover > bestCover || (cover == bestCover && cover > 0 && len(grp) < len(config[bestIdx])) {
				bestIdx, bestCover = i, cover
			}
		}
		if bestIdx < 0 {
			break // uncovered attributes: impossible in practice (base layout covers schema)
		}
		grp := config[bestIdx]
		accesses = append(accesses, costmodel.GroupAccess{
			Stride: len(grp), Width: len(grp), Used: bestCover,
			Rows: ev.rel.Rows, Selectivity: sel,
		})
		remaining = subtract(remaining, grp)
	}
	// Joining overhead: when the query has to stitch attributes from more
	// than one group, every group pays intermediate materialization for
	// tuple reconstruction ("by merging them together H2O reduces the
	// joining overhead of groups"). A single covering group pays none —
	// that is exactly the benefit merging buys.
	if len(accesses) > 1 {
		for i := range accesses {
			accesses[i].IntermediateWords = int(float64(accesses[i].Used*ev.rel.Rows) * sel)
		}
	}
	return ev.m.QueryCost(accesses)
}

// transformBytes estimates the volume a reorganization into attrs moves,
// per segment and in total. Segments already carrying the group cost zero.
func (ev *evaluator) transformBytes(attrs []data.AttrID) ([]int64, int64) {
	segBytes := make([]int64, len(ev.rel.Segments))
	var total int64
	for si, seg := range ev.rel.Segments {
		if _, ok := seg.ExactGroup(attrs); ok {
			continue
		}
		n, err := storage.SegTransformBytes(seg, attrs)
		if err != nil {
			// Uncovered attributes cannot be stitched; price it prohibitively.
			n = int64(seg.Rows) * int64(len(attrs)) * 16
		}
		segBytes[si] = n
		total += n
	}
	return segBytes, total
}

// subtract removes members of b from the sorted set a.
func subtract(a, b []data.AttrID) []data.AttrID {
	var out []data.AttrID
	j := 0
	for _, x := range a {
		for j < len(b) && b[j] < x {
			j++
		}
		if j < len(b) && b[j] == x {
			continue
		}
		out = append(out, x)
	}
	return out
}

// candidateSet deduplicates attribute sets by pattern.
type candidateSet struct {
	seen map[string]bool
	list [][]data.AttrID
}

func newCandidateSet() *candidateSet {
	return &candidateSet{seen: make(map[string]bool)}
}

func (cs *candidateSet) add(attrs []data.AttrID) {
	if len(attrs) == 0 {
		return
	}
	norm := data.SortedUnique(attrs)
	key := fmt.Sprint(norm)
	if cs.seen[key] {
		return
	}
	cs.seen[key] = true
	cs.list = append(cs.list, norm)
}

func (cs *candidateSet) items() [][]data.AttrID {
	return append([][]data.AttrID(nil), cs.list...)
}
