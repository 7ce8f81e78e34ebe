package exec

import (
	"sync"
	"sync/atomic"

	"disqo/internal/faultinject"
)

// Morsel-driven parallelism (Leis et al., adapted to materialized
// relations): hot operators split their input into fixed-size morsels
// that a pool of workers claims from a shared counter. No result
// depends on where the morsels cut: row-at-a-time operators concatenate
// per-morsel output in morsel order, DISTINCT keeps first-seen order,
// and Γ folds each group once, in input order, in key partitions
// (parTasks) — so results are bit-identical at every worker count and
// every morsel size, keeping golden tests byte-stable.
const (
	// DefaultMorselSize is the chunk length workers claim when
	// Options.MorselSize is unset.
	DefaultMorselSize = 1024
	// MinMorselSize bounds Options.MorselSize from below. Cancellation
	// (context, timeout, abort latch) is polled at every morsel boundary
	// and every few thousand inner-loop iterations, so smaller morsels
	// buy nothing in responsiveness and only add scheduling overhead.
	MinMorselSize = 64
	// MaxMorselSize bounds Options.MorselSize from above: a morsel is
	// the unit of work between cancellation polls on the vectorized
	// path (kernels poll per morsel, not per tuple), so this caps
	// cancellation latency at 64Ki rows of single-predicate work.
	MaxMorselSize = 65536
)

// fanout returns how many workers an input of n tuples should use.
// Worker clones never fan out again — nested pools would oversubscribe
// and make inner-operator chunking depend on outer scheduling. Below
// two morsels the scheduling overhead dominates, so the input stays
// inline.
func (ex *Executor) fanout(n int) int {
	if ex.isWorker || n < 2*ex.msize {
		return 1
	}
	w := ex.opt.Workers
	if nm := (n + ex.msize - 1) / ex.msize; w > nm {
		w = nm
	}
	return w
}

// workerClone returns an executor sharing this one's plan, memo, and
// abort latch but with private Stats and NodeMetrics shards (merged by
// parTasks) and tick counter.
func (ex *Executor) workerClone() *Executor {
	w := *ex
	w.stats = Stats{}
	w.ticks = 0
	w.isWorker = true
	if ex.nm != nil {
		w.nm = make([]NodeMetrics, len(ex.nm))
	}
	return &w
}

// creditMorsels counts an n-tuple input's morsels to the operator being
// evaluated. The count is derived from the input size alone, never from
// the actual chunking, so it is identical for Workers=1 and Workers=N.
func (ex *Executor) creditMorsels(n int) {
	if ex.nm != nil && ex.cur != nil && n > 0 {
		ex.metric(ex.cur).Morsels += int64((n + ex.msize - 1) / ex.msize)
	}
}

// parMorsels runs f over [lo,hi) morsels of an n-tuple input and returns
// the per-morsel results in morsel order. With one worker (small input,
// Workers=1, or already inside a worker) it runs f inline on ex, as a
// single [0,n) call; with several, clones claim the morsels.
func parMorsels[T any](ex *Executor, n int, f func(w *Executor, lo, hi int) (T, error)) ([]T, error) {
	ex.creditMorsels(n)
	workers := ex.fanout(n)
	if workers <= 1 {
		res, err := runMorsel(ex, 0, n, f)
		if err != nil {
			return nil, err
		}
		return []T{res}, nil
	}
	return parTasks(ex, workers, (n+ex.msize-1)/ex.msize, func(w *Executor, m int) (T, error) {
		lo := m * ex.msize
		return runMorsel(w, lo, min(lo+ex.msize, n), f)
	})
}

// parTasks runs task 0..k-1 on a pool of worker clones that claim tasks
// from a shared counter, and returns the results in task order. The
// first error (by task index) wins, and the abort latch makes the
// remaining workers drain quickly. A task wraps its work in runMorsel.
func parTasks[T any](ex *Executor, workers, k int, task func(w *Executor, m int) (T, error)) ([]T, error) {
	results := make([]T, k)
	errs := make([]error, k)
	var next atomic.Int64
	clones := make([]*Executor, workers)
	var wg sync.WaitGroup
	for i := range clones {
		clones[i] = ex.workerClone()
		wg.Add(1)
		go func(w *Executor) {
			defer wg.Done()
			for {
				m := int(next.Add(1)) - 1
				if m >= k {
					return
				}
				if ex.sh.aborted.Load() {
					errs[m] = ex.sh.abortError()
					continue
				}
				res, err := task(w, m)
				if err != nil {
					errs[m] = err
					ex.fail(err)
					continue
				}
				results[m] = res
			}
		}(clones[i])
	}
	wg.Wait()
	for _, w := range clones {
		ex.stats.merge(&w.stats)
		if ex.nm != nil {
			ex.mergeNodeMetrics(w.nm)
		}
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

// runMorsel runs f over one morsel with the per-morsel robustness
// wrapping: the abort latch / context / deadline are polled at the
// boundary (so cancellation lands within one morsel's worth of work),
// the fault injector's morsel site fires here, and a panic out of f is
// recovered into an error attributed to the operator that fanned out —
// a worker goroutine can therefore never crash the process, and the
// pool always drains through wg.Done.
func runMorsel[T any](w *Executor, lo, hi int, f func(w *Executor, lo, hi int) (T, error)) (res T, err error) {
	defer func() {
		if r := recover(); r != nil {
			var zero T
			res, err = zero, w.recoverError(r)
		}
	}()
	if terr := w.slowTick(); terr != nil {
		return res, terr
	}
	if ferr := w.inject(faultinject.SiteMorsel, w.cur); ferr != nil {
		return res, ferr
	}
	w.traceMorsel(lo, hi)
	return f(w, lo, hi)
}
