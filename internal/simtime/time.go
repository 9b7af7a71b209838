// Package simtime provides a deterministic discrete-event simulation
// kernel. Simulated processes are ordinary goroutines that execute in
// strict lockstep with the kernel: exactly one simulated entity (process
// or timer callback) runs at any instant, so simulated code needs no
// locking, and every run of a simulation is bit-reproducible.
//
// The kernel is the substrate for the whole repository: hosts, NICs,
// switches and MPI processes are all simtime processes, and every latency
// reported by the benchmark harness is virtual time measured on a Kernel.
package simtime

import "fmt"

// Time is an absolute virtual time in picoseconds since the start of the
// simulation. Picosecond resolution keeps per-byte transfer times exact
// for multi-gigabyte-per-second links without accumulating rounding error.
type Time int64

// Duration is a span of virtual time in picoseconds.
type Duration int64

// Duration units.
const (
	Picosecond  Duration = 1
	Nanosecond           = 1000 * Picosecond
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// Micros constructs a Duration from a floating-point number of
// microseconds. It is the conversion used by the calibrated cost model.
func Micros(us float64) Duration {
	return Duration(us * float64(Microsecond))
}

// Micros reports the duration as a floating-point number of microseconds.
func (d Duration) Micros() float64 {
	return float64(d) / float64(Microsecond)
}

// Micros reports the absolute time as microseconds since simulation start.
func (t Time) Micros() float64 {
	return float64(t) / float64(Microsecond)
}

// Add returns the time advanced by d.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration elapsed from u to t.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

func (t Time) String() string {
	return fmt.Sprintf("%.3fus", t.Micros())
}

func (d Duration) String() string {
	return fmt.Sprintf("%.3fus", d.Micros())
}

// BytesAt returns the time to move n bytes at rate bytes/second. A zero or
// negative rate yields zero duration, which lets cost models disable a
// bandwidth term without special cases.
func BytesAt(n int, bytesPerSec float64) Duration {
	if bytesPerSec <= 0 || n <= 0 {
		return 0
	}
	return Duration(float64(n) / bytesPerSec * float64(Second))
}
