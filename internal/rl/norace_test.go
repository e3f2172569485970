//go:build !race

package rl

// See race_test.go.
const raceEnabled = false
