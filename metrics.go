package disqo

import (
	"fmt"
	"strings"
	"time"

	"disqo/internal/exec"
	"disqo/internal/physical"
)

// Tracer observes physical-operator execution: one OpOpen/OpClose span
// per operator evaluation with OpMorsel events in between. Pass an
// implementation with WithTracer; implementations must be safe for
// concurrent use (morsel workers emit events in parallel).
type Tracer = exec.Tracer

// OpMetrics is one physical operator's runtime report: the planner's
// estimate next to what execution actually did. All counters are
// worker-count independent; Wall is wall-clock and is not.
type OpMetrics struct {
	// ID is the physical node's planner-assigned ordinal.
	ID int `json:"id"`
	// Op is the operator's physical label (algorithm and arguments).
	Op string `json:"op"`
	// EstRows is the optimizer's estimated output cardinality.
	EstRows float64 `json:"est_rows"`
	// Calls counts actual evaluations; canonical nested plans pay one
	// per outer tuple, unnested plans exactly one.
	Calls int64 `json:"calls"`
	// MemoHits counts evaluations answered from the DAG/subquery memo.
	MemoHits int64 `json:"memo_hits,omitempty"`
	// RowsIn / RowsOut are total input and output tuples across calls.
	RowsIn  int64 `json:"rows_in"`
	RowsOut int64 `json:"rows_out"`
	// Morsels is how many fixed-size input chunks the operator's
	// parallel loops processed (derived from input size).
	Morsels int64 `json:"morsels,omitempty"`
	// VecCalls counts the Calls served by a vectorized kernel; the
	// remainder ran tuple-at-a-time. Zero on the row path.
	VecCalls int64 `json:"vec_calls,omitempty"`
	// HashBuildRows is the total build-side size of hash tables built.
	HashBuildRows int64 `json:"hash_build_rows,omitempty"`
	// Wall is the cumulative inclusive evaluation time.
	Wall time.Duration `json:"wall_ns"`
	// Children are the IDs of the operator's physical inputs.
	Children []int `json:"children,omitempty"`
}

// PlanMetrics is the structured per-operator report of one executed
// query — the machine-readable form of EXPLAIN ANALYZE. Ops holds every
// distinct physical node of the executed DAG in pre-order from the
// root; shared subplans appear once and are referenced by ID.
type PlanMetrics struct {
	Root int         `json:"root"`
	Ops  []OpMetrics `json:"ops"`
	// Cache reports where the result came from ("execution",
	// "result-cache", "single-flight", "bypass") and the DB-wide cache
	// counters at completion. For a served result, Root and Ops are the
	// filling execution's report — no operators ran for this call.
	Cache *CacheReport `json:"cache,omitempty"`
}

// Op returns the report entry for a node ID, or nil.
func (p *PlanMetrics) Op(id int) *OpMetrics {
	for i := range p.Ops {
		if p.Ops[i].ID == id {
			return &p.Ops[i]
		}
	}
	return nil
}

// TotalWall sums the root's wall time — the executed plan's inclusive
// evaluation time.
func (p *PlanMetrics) TotalWall() time.Duration {
	if op := p.Op(p.Root); op != nil {
		return op.Wall
	}
	return 0
}

// newPlanMetrics assembles the report from the executed plan — the main
// DAG, then the nested blocks evaluated from expressions — and the
// executor's per-node counters. Shared nodes are reported once.
func newPlanMetrics(pp *prepared, nm []exec.NodeMetrics) *PlanMetrics {
	pm := &PlanMetrics{Root: pp.phys.Root.ID()}
	seen := map[int]bool{}
	add := func(r physical.Node) {
		physical.Walk(r, func(n physical.Node) bool {
			if seen[n.ID()] {
				return false
			}
			seen[n.ID()] = true
			om := OpMetrics{ID: n.ID(), Op: n.Label(), EstRows: n.EstRows()}
			if n.ID() < len(nm) {
				m := nm[n.ID()]
				om.Calls = m.Calls
				om.MemoHits = m.MemoHits
				om.RowsIn = m.RowsIn
				om.RowsOut = m.RowsOut
				om.Morsels = m.Morsels
				om.VecCalls = m.VecCalls
				om.HashBuildRows = m.HashBuildRows
				om.Wall = m.Wall()
			}
			for _, c := range n.Children() {
				om.Children = append(om.Children, c.ID())
			}
			pm.Ops = append(pm.Ops, om)
			return true
		})
	}
	add(pp.phys.Root)
	for _, b := range pp.blocks {
		add(b)
	}
	return pm
}

// analyzeAnnot renders one node's estimated-vs-actual annotation for
// EXPLAIN ANALYZE. Every printed counter is worker-count independent;
// only the trailing time= field is wall-clock (tests mask it).
func analyzeAnnot(pm *PlanMetrics) func(physical.Node) string {
	return func(n physical.Node) string {
		var m OpMetrics
		if om := pm.Op(n.ID()); om != nil {
			m = *om
		}
		if m.Calls == 0 && m.MemoHits == 0 {
			return fmt.Sprintf("(est %.0f rows, never executed)", n.EstRows())
		}
		if m.Calls == 0 {
			// Every evaluation was answered from the memo; the rows came
			// from the defining occurrence above.
			return fmt.Sprintf("(est %.0f rows, memo=%d)", n.EstRows(), m.MemoHits)
		}
		var b strings.Builder
		fmt.Fprintf(&b, "(est %.0f → actual %d rows, calls=%d", n.EstRows(), m.RowsOut, m.Calls)
		if m.MemoHits > 0 {
			fmt.Fprintf(&b, ", memo=%d", m.MemoHits)
		}
		if m.HashBuildRows > 0 {
			fmt.Fprintf(&b, ", build=%d", m.HashBuildRows)
		}
		if m.Morsels > 0 {
			fmt.Fprintf(&b, ", morsels=%d", m.Morsels)
		}
		if m.VecCalls > 0 {
			b.WriteString(", path=vector")
		} else {
			b.WriteString(", path=row")
		}
		fmt.Fprintf(&b, ", time=%s)", m.Wall.Round(time.Microsecond))
		return b.String()
	}
}
