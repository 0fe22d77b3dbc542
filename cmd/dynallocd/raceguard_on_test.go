//go:build race

package main

// raceEnabled reports whether this test binary was built with -race;
// the timed first-reply test skips itself under race instrumentation.
const raceEnabled = true
