//go:build !race

package router

// See raceguard_on_test.go.
const raceEnabled = false
