package bench

import (
	"fmt"
	"math/rand"

	"repro/internal/threecol"
	"repro/internal/workload"
)

// PipelineResult reports the outcome of one end-to-end FPT pipeline run.
type PipelineResult struct {
	Width     int
	Colorable bool
}

// Pipeline exercises the full FPT stack end to end on a deterministic
// workload: generate a bounded-treewidth graph (a random partial 3-tree,
// which may or may not be 3-colorable), compute a min-fill tree
// decomposition, normalize it to the nice form of Section 5 and run the
// Figure 5 decision DP. It is the health-check path behind
// BenchmarkPipeline: a regression in any layer (heuristic,
// normalization, DP scheduling) shows up here. The width must stay
// within the padded bound of the generator's treewidth.
func Pipeline(n int, seed int64) (PipelineResult, error) {
	rng := rand.New(rand.NewSource(seed))
	g := workload.ColorableGraph(n, 3, rng)
	in, err := threecol.NewInstance(g)
	if err != nil {
		return PipelineResult{}, err
	}
	ok, err := in.Decide()
	if err != nil {
		return PipelineResult{}, err
	}
	if w := in.Width(); w < 0 || w > 3*4 {
		return PipelineResult{}, fmt.Errorf("bench: pipeline width %d out of range for a partial 3-tree (n=%d seed=%d)", w, n, seed)
	}
	return PipelineResult{Width: in.Width(), Colorable: ok}, nil
}
