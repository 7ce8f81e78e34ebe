//go:build !race

package types

// PoisonReleased reports whether a released table is poisoned; see
// poison_race.go.
const PoisonReleased = false
