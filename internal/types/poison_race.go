//go:build race

package types

// PoisonReleased reports whether a released table is poisoned — filled
// with a pattern that makes a read after release decide wrongly — rather
// than only emptied of its references. It is set in builds with the race
// detector, which the differential tests run under, and costs a normal
// build nothing.
const PoisonReleased = true
