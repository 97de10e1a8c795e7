package datalog

import (
	"context"
	"sync/atomic"
)

// EngineStats are the semi-naive engine's cumulative counters: the join
// steps its rule joins took (one per partial binding extended or
// completed binding handed off; see ruleJoin.run), and the high-water
// mark of derivations the parallel rounds buffered at once for their
// merge. Serial rounds buffer nothing.
type EngineStats struct {
	TuplesStreamed     int64
	PeakBufferedTuples int64
}

// StatsCollector accumulates semi-naive engine counters for one
// consumer. Attach one to a context with WithStatsCollector;
// evaluations running under that context add their traffic to it. Safe
// for concurrent use.
type StatsCollector struct {
	tuples atomic.Int64
	peak   atomic.Int64
}

// Snapshot returns the collector's counters.
func (c *StatsCollector) Snapshot() EngineStats {
	if c == nil {
		return EngineStats{}
	}
	return EngineStats{
		TuplesStreamed:     c.tuples.Load(),
		PeakBufferedTuples: c.peak.Load(),
	}
}

// collectorKey carries a *StatsCollector through a context.
type collectorKey struct{}

// WithStatsCollector attaches a collector to the context so evaluations
// under it report their semi-naive engine traffic. A nil c returns ctx
// unchanged.
func WithStatsCollector(ctx context.Context, c *StatsCollector) context.Context {
	if c == nil {
		return ctx
	}
	return context.WithValue(ctx, collectorKey{}, c)
}

func statsCollectorFrom(ctx context.Context) *StatsCollector {
	c, _ := ctx.Value(collectorKey{}).(*StatsCollector)
	return c
}

func addTuplesStreamed(c *StatsCollector, n int64) {
	if c != nil && n != 0 {
		c.tuples.Add(n)
	}
}

func notePeakBuffered(c *StatsCollector, peak int64) {
	if c == nil {
		return
	}
	for {
		cur := c.peak.Load()
		if peak <= cur || c.peak.CompareAndSwap(cur, peak) {
			return
		}
	}
}
