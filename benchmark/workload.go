package main

import (
	"fmt"
	"time"

	"disqo"
	"disqo/internal/catalog"
)

// opDeadline is the per-operation deadline; an operation that exceeds it
// fails and counts against the run.
const opDeadline = 30 * time.Second

// class is one kind of operation a workload issues; latencies are
// reported per class so that no class hides behind the mix.
type class struct {
	name  string
	write bool
}

// op is one position in a workload's statement cycle. A pass over the
// cycle runs every op once; pass p runs variant p mod len(stmts) of each
// op, so the class mix is the same in every pass while constants and
// ad-hoc texts move through a fixed, seed-derived sequence.
type op struct {
	class int
	stmts []string
	// wants holds the verified outcome of each variant, filled during
	// set-up by the reference passes.
	wants []expect
	// do runs variant v through the surface the workload measures.
	do func(v int) (outcome, error)
	// ref runs variant v through the surface results are checked
	// against; nil means do. served_mixed measures the client and
	// checks against the embedded engine on the same database.
	ref func(v int) (outcome, error)
	// mirror applies a write to the private catalog of the traced run,
	// so the staged pipeline sees the state the engine is in.
	mirror func(*catalog.Catalog) error
	// plansEveryCall marks reads no cache can serve: the public call
	// parses, plans and executes every time, which makes its latency
	// comparable with the staged pipeline's sum.
	plansEveryCall bool
}

// phases are the timed parts of one set-up, in order.
type phases struct {
	datagen, load, verify, warmup time.Duration
	rowsLoaded                    int
}

// workload describes one benchmark workload: what it is called, the
// classes it reports, and how to build an instance from a seed.
type workload struct {
	name    string
	why     string
	scale   string
	classes []class
	// warmPasses is the fixed number of passes a set-up ends with: a
	// count, not a time, so that work moved into set-up shows, sized so
	// that a set-up takes at least 3 s at seed 1 on the builder's
	// machine and start-up jitter is a small share of setup_s.
	warmPasses int
	// setup generates the seed's inputs, loads an engine and builds the
	// statement cycle. scratch is a directory it may create files in.
	setup func(w *workload, seed uint64, scratch string) (*instance, error)
}

// instance is a workload set up for one seed: a loaded engine and the
// statement cycle to run against it.
type instance struct {
	w     *workload
	seed  uint64
	cycle []op
	// db is the engine under test; embedded workloads call it directly,
	// served_mixed reaches it through the client and keeps the handle
	// for counters and the durability check.
	db *disqo.DB
	// cat is a private catalog holding the same data, for the staged
	// pipeline of the traced run.
	cat *catalog.Catalog
	// workers is the worker count of the measured surface, which the
	// staged pipeline mirrors (0 is the engine default).
	workers int
	// overWire marks results that reach the caller through the codec.
	overWire bool

	// refPasses is how many reference passes fill every op's wants: the
	// largest variant count in the cycle.
	refPasses int
	// oracle checks the reference outcomes against an engine that does
	// not share the rewriter (canonical strategy).
	oracle func() error
	// invariant checks an untraced window's counters against what the
	// cycle predicts and returns what does not hold; nil when the
	// workload predicts nothing.
	invariant func(ws *window) []string
	// probes measures layers the cycle cannot isolate (protocol floor,
	// log append and fsync, plan-cache lookup) for the traced run.
	probes func(m map[string]float64) error
	// teardown closes everything the set-up opened and runs the
	// workload's end-of-run checks, returning how many failed.
	teardown func() (failed int, err error)

	phases phases
	// verifyChecks and verifyFailures count set-up checks: reference
	// determinism, oracle, pinned values, warm-up results.
	verifyChecks, verifyFailures int
	// passes counts passes since set-up began; the warm-up and every
	// round continue one sequence.
	passes int
}

// variant is the statement variant pass p runs for an op.
func (o *op) variant(pass int) int { return pass % len(o.stmts) }

// fail records a failed set-up check.
func (in *instance) fail(format string, args ...any) {
	in.verifyFailures++
	logf("VERIFY FAIL [%s]: %s", in.w.name, fmt.Sprintf(format, args...))
}

func (w *workload) classIndex(name string) int {
	for i, c := range w.classes {
		if c.name == name {
			return i
		}
	}
	panic("benchmark: unknown class " + name)
}

// readOutcome and writeOutcome adapt the engine's calls to outcomes.
func readOutcome(res *disqo.Result, err error) (outcome, error) {
	if err != nil {
		return outcome{}, err
	}
	return outcome{rows: res.Rows}, nil
}

func writeOutcome(n int, err error) (outcome, error) {
	if err != nil {
		return outcome{}, err
	}
	return outcome{affected: n, write: true}, nil
}

// reference fills every op's wants by running passes through the
// reference surface. Pass p references variant p mod n of each op; an op
// whose variant was already referenced by an earlier pass must reproduce
// it exactly, which checks that the cycle is deterministic. The passes
// advance in.passes: they are the first part of the warm-up.
func (in *instance) reference(passes int) error {
	for p := 0; p < passes; p++ {
		for i := range in.cycle {
			o := &in.cycle[i]
			if o.wants == nil {
				o.wants = make([]expect, len(o.stmts))
			}
			v := o.variant(in.passes)
			run := o.ref
			if run == nil {
				run = o.do
			}
			out, err := run(v)
			if err != nil {
				return fmt.Errorf("%s: reference pass %d, %s variant %d: %w",
					in.w.name, p, in.w.classes[o.class].name, v, err)
			}
			got := out.expect()
			in.verifyChecks++
			if p >= len(o.stmts) && got != o.wants[v] {
				in.fail("%s variant %d not deterministic: %+v then %+v",
					in.w.classes[o.class].name, v, o.wants[v], got)
			}
			o.wants[v] = got
		}
		in.passes++
	}
	return nil
}

// verify fills the expected outcomes and checks them against the oracle.
func (in *instance) verify() error {
	if err := in.reference(in.refPasses); err != nil {
		return err
	}
	if err := in.oracle(); err != nil {
		return fmt.Errorf("%s: %w", in.w.name, err)
	}
	return nil
}

// classExpectations folds each class's verified outcomes, in cycle and
// variant order, into one value per class.
func (in *instance) classExpectations() map[string]expect {
	per := make(map[string][]expect)
	for i := range in.cycle {
		o := &in.cycle[i]
		name := in.w.classes[o.class].name
		per[name] = append(per[name], o.wants...)
	}
	out := make(map[string]expect, len(per))
	for name, es := range per {
		out[name] = combine(es)
	}
	return out
}

// checkPinned compares the class expectations with the pinned file for
// the seed, when there is one.
func (in *instance) checkPinned() error {
	pin, err := loadPinned(in.seed)
	if err != nil || pin == nil {
		return err
	}
	want, ok := pin.Workloads[in.w.name]
	if !ok {
		in.fail("no pinned values for workload at seed %d", in.seed)
		return nil
	}
	got := in.classExpectations()
	for _, c := range in.w.classes {
		in.verifyChecks++
		if got[c.name] != want[c.name] {
			in.fail("class %s at seed %d: got %+v, pinned %+v", c.name, in.seed, got[c.name], want[c.name])
		}
	}
	return nil
}
