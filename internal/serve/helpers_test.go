package serve

import "dynalloc/internal/rng"

// admitOne admits one ball into bin b — a pass of one through
// Store.AdmitBatch, the store's only admission path — and returns the
// bin's new load. It is what the sequential references are built from.
func admitOne(st *Store, b int) int {
	bins, loads := [1]int{b}, [1]int32{}
	st.AdmitBatch(bins[:], loads[:])
	return int(loads[0])
}

// pickOne picks one ball's destination — a PickBatch pass of one.
func pickOne(p Policy, st *Store, r *rng.RNG) (bin, probes int) {
	var one [1]int
	probes = p.PickBatch(st, r, one[:])
	return one[0], probes
}
