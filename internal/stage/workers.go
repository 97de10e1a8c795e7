package stage

import (
	"context"
	"runtime"
)

// workersKey carries a worker count through a context.
type workersKey struct{}

// WithWorkers attaches a worker count to the context: the goroutine
// fan-out of the parallel evaluators run under it (the datalog engine's
// stratum rounds and the nice-form DP scheduler). Values below 1 mean 1,
// i.e. serial. Results are identical at every count.
func WithWorkers(ctx context.Context, n int) context.Context {
	if n < 1 {
		n = 1
	}
	return context.WithValue(ctx, workersKey{}, n)
}

// Workers reports the worker count attached by WithWorkers, or
// runtime.GOMAXPROCS(0) when none is.
func Workers(ctx context.Context) int {
	if n, ok := ctx.Value(workersKey{}).(int); ok {
		return n
	}
	return runtime.GOMAXPROCS(0)
}
