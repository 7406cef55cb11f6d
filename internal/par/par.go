// Package par provides small deterministic parallel-for and reduction
// helpers used throughout the FaultyRank code base.
//
// The helpers intentionally favour static range partitioning over work
// stealing: every exported function splits its index space into at most
// `workers` contiguous chunks, which keeps the memory-access pattern of
// CSR kernels sequential per worker and makes results reproducible.
package par

import (
	"runtime"
	"sync"
)

// DefaultWorkers returns the default worker count used when a caller passes
// workers <= 0. It is GOMAXPROCS, the number of usable CPUs.
func DefaultWorkers() int {
	return runtime.GOMAXPROCS(0)
}

// clampWorkers normalises a worker request against the problem size.
func clampWorkers(workers, n int) int {
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// ForRange runs fn over [0, n) split into contiguous chunks, one goroutine
// per chunk. fn receives the half-open range [lo, hi) it owns. ForRange
// returns once all chunks complete. With workers <= 1 (or tiny n) it runs
// inline, avoiding goroutine overhead on small inputs.
func ForRange(n, workers int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	workers = clampWorkers(workers, n)
	if workers == 1 {
		fn(0, n)
		return
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// ForEach runs fn(i) for every i in [0, n) using ForRange underneath.
func ForEach(n, workers int, fn func(i int)) {
	ForRange(n, workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			fn(i)
		}
	})
}

// MapReduceMaxFloat64 evaluates fn(i) for i in [0, n) and returns the
// maximum of the results, 0 when n <= 0 (callers reduce non-negative
// magnitudes; an empty input has no deviation). Each worker keeps a
// local maximum over its contiguous chunk; chunk maxima are combined in
// chunk order, so the result is independent of goroutine interleaving.
func MapReduceMaxFloat64(n, workers int, fn func(i int) float64) float64 {
	if n <= 0 {
		return 0
	}
	workers = clampWorkers(workers, n)
	if workers == 1 {
		var m float64
		for i := 0; i < n; i++ {
			if v := fn(i); v > m {
				m = v
			}
		}
		return m
	}
	chunk := (n + workers - 1) / workers
	nChunks := (n + chunk - 1) / chunk
	partial := make([]float64, nChunks)
	var wg sync.WaitGroup
	idx := 0
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(slot, lo, hi int) {
			defer wg.Done()
			var m float64
			for i := lo; i < hi; i++ {
				if v := fn(i); v > m {
					m = v
				}
			}
			partial[slot] = m
		}(idx, lo, hi)
		idx++
	}
	wg.Wait()
	var m float64
	for _, p := range partial {
		if p > m {
			m = p
		}
	}
	return m
}

// ExclusivePrefixSum64 converts counts (length n) into exclusive prefix
// sums in place and returns the grand total. counts[i] becomes the sum of
// the original counts[0..i). The scan is sequential: prefix sums of the
// sizes used in this project (tens of millions of vertices) take only a
// few milliseconds, far below the cost of parallel-scan coordination.
func ExclusivePrefixSum64(counts []int64) int64 {
	var running int64
	for i := range counts {
		c := counts[i]
		counts[i] = running
		running += c
	}
	return running
}
