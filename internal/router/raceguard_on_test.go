//go:build race

package router

// raceEnabled reports whether this test binary was built with -race:
// the allocation budgets skip themselves under race instrumentation,
// which inserts its own allocations.
const raceEnabled = true
