//go:build !linux

package rt

// adviseHuge has no advice to give off Linux: a large slab is aligned
// like everywhere else and left on the pages the runtime chose.
func adviseHuge([]float64) bool { return false }
