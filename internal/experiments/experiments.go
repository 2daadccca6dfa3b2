// Package experiments defines the reproduction experiments E1–E19, one per
// quantitative claim of the paper (cmd/assocbench/main.go maps each id to
// its claim). Each experiment is a pure function of a Config, returns a
// structured result, and renders a stats.Table shaped like the claim it validates. The
// cmd/assocbench binary prints the tables; bench_test.go at the module root
// exposes each experiment as a testing.B benchmark; the package tests assert
// the *shape* of each result (who wins, by roughly what factor, where the
// crossover falls) rather than absolute numbers.
package experiments

import (
	"repro/internal/policy"
)

// Scale selects experiment sizes.
type Scale int

const (
	// Quick is sized for unit tests and CI: seconds, not minutes.
	Quick Scale = iota
	// Full is the paper-shaped scale used by cmd/assocbench.
	Full
)

// Config parameterizes every experiment.
type Config struct {
	// Seed makes the whole experiment deterministic.
	Seed uint64
	// Scale selects Quick or Full parameter sets.
	Scale Scale
}

// DefaultConfig returns the standard full-scale configuration.
func DefaultConfig() Config { return Config{Seed: 0x5eed, Scale: Full} }

// QuickConfig returns the test-scale configuration.
func QuickConfig() Config { return Config{Seed: 0x5eed, Scale: Quick} }

// pick returns q at Quick scale and f at Full scale.
func (c Config) pick(q, f int) int {
	if c.Scale == Quick {
		return q
	}
	return f
}

func lruFactory() policy.Factory { return policy.NewFactory(policy.LRUKind, 0) }

// log2 returns ⌊log₂ n⌋ for n ≥ 1.
func log2(n int) int {
	l := 0
	for n > 1 {
		n >>= 1
		l++
	}
	return l
}
