// Package sim is a minimal stand-in for the event engine: just enough
// surface for shardsafe to recognize Fanout workers by their full method
// name.
package sim

// Engine is the stand-in event engine.
type Engine struct {
	workers int
}

// Fanout runs fn(k) for every shard index k. The real engine runs the
// calls on a worker pool; the stub keeps the signature and the sequential
// meaning.
func (e *Engine) Fanout(n int, fn func(int)) {
	for i := 0; i < n; i++ {
		fn(i)
	}
}
