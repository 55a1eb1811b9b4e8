package main

import (
	"time"
)

// Schedule fixes the send times of an open loop before it starts:
// n sends at a constant aggregate rate (per second), as offsets from
// the phase start. Send i is due at i/rate whatever happened to the
// sends before it, so a stalled system builds a backlog instead of
// quietly lowering the offered load.
func Schedule(n int, rate float64) []time.Duration {
	due := make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration(float64(i) / rate * float64(time.Second))
	}
	return due
}

// Pace calls send for each index in order, never before start plus
// its due offset, and records in late[i] how far after its due time
// send i actually began. It stops at the first send error. late must
// have room for every index in idx.
func Pace(start time.Time, due []time.Duration, idx []int, late []time.Duration, send func(i int) error) error {
	for _, i := range idx {
		at := start.Add(due[i])
		if d := time.Until(at); d > 0 {
			time.Sleep(d)
		}
		late[i] = time.Since(at)
		if err := send(i); err != nil {
			return err
		}
	}
	return nil
}
