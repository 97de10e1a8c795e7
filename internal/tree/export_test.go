package tree

// MinParallelNodes exposes the scheduler's serial cut-off to the
// external scheduler tests.
const MinParallelNodes = minParallelNodes

// CarveSpare returns the unused tail of d's carving array.
func CarveSpare(d *Decomposition) int { return cap(d.ints) - len(d.ints) }
