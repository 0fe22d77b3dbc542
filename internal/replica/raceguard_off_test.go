//go:build !race

package replica

// See raceguard_on_test.go.
const raceEnabled = false
