package tree

// CarveSpare returns the unused tail of d's carving array.
func CarveSpare(d *Decomposition) int { return cap(d.ints) - len(d.ints) }
