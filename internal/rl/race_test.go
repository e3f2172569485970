//go:build race

package rl

// raceEnabled gates the steady-state allocation assertions: under the
// race detector sync.Pool deliberately drops a fraction of Puts, so the
// tensor package's pooled task headers and panels reallocate and a
// 0-allocs/op check misfires. Every non-race run still asserts 0.
const raceEnabled = true
