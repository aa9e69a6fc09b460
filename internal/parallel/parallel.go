// Package parallel is the bounded worker pool under the experiment
// engine: it fans indexed work items out across goroutines while keeping
// results bit-identical to a sequential run.
//
// The determinism contract is positional: every helper hands fn the item
// index i, and fn must derive all of its state (in particular its RNG,
// via xrand.SplitMix(seed, i)) from that index alone. Workers claim
// indices from a shared atomic counter, so scheduling order varies run to
// run, but because item i's output depends only on i and each result is
// written to its own slot, the assembled output is independent of both
// the worker count and the interleaving. Workers == 1 degenerates to a
// plain loop on the caller's goroutine.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a worker-count knob: n if positive, else
// runtime.GOMAXPROCS(0). Zero is the conventional "use every core"
// default across Options structs and CLI flags.
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// ForEach invokes fn(i) for every i in [0, n), using at most
// Workers(workers) goroutines. It returns once every item has run. A
// panic in any fn is re-raised on the caller's goroutine after the pool
// drains, so driver bugs surface exactly as they would sequentially.
func ForEach(workers, n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var (
		next      atomic.Int64
		wg        sync.WaitGroup
		panicOnce sync.Once
		panicked  any
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					//lint:allow sharedwrite guarded by panicOnce.Do: at most one write, read only after wg.Wait
					panicOnce.Do(func() { panicked = r })
					// Stop handing out new items; in-flight ones finish.
					next.Store(int64(n))
				}
			}()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
}

// Map applies fn to every item and returns the results in input order.
func Map[T, R any](workers int, items []T, fn func(i int, item T) R) []R {
	out := make([]R, len(items))
	ForEach(workers, len(items), func(i int) { out[i] = fn(i, items[i]) })
	return out
}

// MapN is Map over the index range [0, n) when there is no input slice.
func MapN[R any](workers, n int, fn func(i int) R) []R {
	out := make([]R, n)
	ForEach(workers, n, func(i int) { out[i] = fn(i) })
	return out
}

// GroupBy partitions items into the groups a fan-out runs as units,
// keeping the first-appearance order of groups and of items within each
// group. Items with equal keys share a group; key reports false for an
// item that forms a group of its own.
func GroupBy[T any, K comparable](items []T, key func(T) (K, bool)) [][]T {
	index := map[K]int{}
	var groups [][]T
	for _, it := range items {
		k, ok := key(it)
		if ok {
			if i, seen := index[k]; seen {
				groups[i] = append(groups[i], it)
				continue
			}
			index[k] = len(groups)
		}
		groups = append(groups, []T{it})
	}
	return groups
}

// Chunks splits n items into fixed-size chunks and returns the chunk
// count. Fixed-size (rather than workers-sized) chunking is what keeps
// chunked computations independent of the worker count: chunk c always
// covers the same [c*size, min((c+1)*size, n)) range.
func Chunks(n, size int) int {
	if size <= 0 {
		panic("parallel: non-positive chunk size")
	}
	return (n + size - 1) / size
}

// ChunkRange returns the half-open item range [lo, hi) of chunk c.
func ChunkRange(c, n, size int) (lo, hi int) {
	lo = c * size
	hi = lo + size
	if hi > n {
		hi = n
	}
	return lo, hi
}
