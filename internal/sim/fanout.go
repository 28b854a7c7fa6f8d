package sim

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// fanWork distributes indices [0, n) over w worker goroutines with an
// atomic work-stealing counter, waits for all of them, and re-raises the
// first panic any worker hit. It is the package's one goroutine-spawn site.
func fanWork(n, w int, fn func(int)) {
	var (
		next int64
		wg   sync.WaitGroup
		mu   sync.Mutex
		rec  any
	)
	for i := 0; i < w; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					mu.Lock()
					if rec == nil {
						rec = r
					}
					mu.Unlock()
				}
			}()
			for {
				k := atomic.AddInt64(&next, 1) - 1
				if k >= int64(n) {
					return
				}
				fn(int(k))
			}
		}()
	}
	wg.Wait()
	if rec != nil {
		panic(rec)
	}
}

// Fanout runs fn(0), …, fn(n-1) on up to GOMAXPROCS worker goroutines and
// returns once every call has completed. It is the fan-out hook for
// deterministic parallel phases inside a single event: the sharded Condor
// negotiator runs its per-shard matchmaking scans through it. The n calls
// must be mutually independent — each may read shared snapshot state but
// write only its own shard's — and every cross-shard effect must be applied
// by the caller after Fanout returns, in a canonical order, so outcomes
// stay bit-identical regardless of worker interleaving. n or GOMAXPROCS of
// 1 degenerate to an inline loop.
func (e *Engine) Fanout(n int, fn func(int)) {
	if n <= 0 {
		return
	}
	w := runtime.GOMAXPROCS(0)
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	fanWork(n, w, fn)
}
