package datalog

import (
	"context"
	"sync/atomic"
)

// EngineStats are the streaming engine's cumulative counters: the row
// volume moved through operator pipelines, the number of joins planned
// with probe constraints pushed into relation indexes, and the
// high-water mark of tuples buffered at once (symmetric hash joins plus the
// parallel rounds' pending merge buffers — the quantity the streaming
// rebuild minimizes).
type EngineStats struct {
	TuplesStreamed     int64 `json:"tuples_streamed"`
	JoinsPushedDown    int64 `json:"joins_pushed_down"`
	PeakBufferedTuples int64 `json:"peak_buffered_tuples"`
}

var (
	gTuplesStreamed  atomic.Int64
	gJoinsPushedDown atomic.Int64
	gPeakBuffered    atomic.Int64
)

// ReadEngineStats returns the process-wide streaming-engine counters.
func ReadEngineStats() EngineStats {
	return EngineStats{
		TuplesStreamed:     gTuplesStreamed.Load(),
		JoinsPushedDown:    gJoinsPushedDown.Load(),
		PeakBufferedTuples: gPeakBuffered.Load(),
	}
}

// StatsCollector accumulates streaming-engine counters for one consumer
// (a session, a server) on top of the process-wide totals. Attach one
// to a context with WithStatsCollector; evaluations running under that
// context add their traffic to it. Safe for concurrent use.
type StatsCollector struct {
	tuples atomic.Int64
	joins  atomic.Int64
	peak   atomic.Int64
}

// Snapshot returns the collector's counters.
func (c *StatsCollector) Snapshot() EngineStats {
	if c == nil {
		return EngineStats{}
	}
	return EngineStats{
		TuplesStreamed:     c.tuples.Load(),
		JoinsPushedDown:    c.joins.Load(),
		PeakBufferedTuples: c.peak.Load(),
	}
}

// collectorKey carries a *StatsCollector through a context.
type collectorKey struct{}

// WithStatsCollector attaches a collector to the context so evaluations
// under it report their streaming-engine traffic. A nil c returns ctx
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
	if n == 0 {
		return
	}
	gTuplesStreamed.Add(n)
	if c != nil {
		c.tuples.Add(n)
	}
}

func addJoinsPushedDown(c *StatsCollector, n int64) {
	if n == 0 {
		return
	}
	gJoinsPushedDown.Add(n)
	if c != nil {
		c.joins.Add(n)
	}
}

func maxInto(a *atomic.Int64, v int64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

func notePeakBuffered(c *StatsCollector, peak int64) {
	if peak == 0 {
		return
	}
	maxInto(&gPeakBuffered, peak)
	if c != nil {
		maxInto(&c.peak, peak)
	}
}
