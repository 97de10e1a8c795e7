package tree

// MinParallelNodes exposes the scheduler's serial cut-off to the
// external scheduler tests.
const MinParallelNodes = minParallelNodes
