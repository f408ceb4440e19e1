// Package vtime provides the time abstractions used throughout the Pado
// reproduction.
//
// The paper's evaluation operates on a minute-granularity timescale:
// transient-container lifetimes are minutes long (Figure 1) and job
// completion times are tens of minutes (Figures 5-9). Running the full
// sweep in real time is impractical, so experiments run under a Scale that
// maps "paper minutes" onto a configurable wall-clock duration. All the
// ratios that drive the paper's results (job length vs. eviction interval,
// compute time vs. transfer time) are preserved because every duration in
// an experiment goes through the same Scale.
//
// Nothing here abstracts the clock itself: everything reads package time,
// and tests that need time to be exact run inside a testing/synctest
// bubble, which fakes package time for the whole simulated cluster.
package vtime

import "time"

// Scale maps paper time (minutes) to wall-clock time. The zero value is
// not useful; use NewScale or the DefaultScale.
type Scale struct {
	// WallPerMinute is the wall-clock duration corresponding to one
	// paper minute.
	WallPerMinute time.Duration
}

// NewScale returns a Scale where one paper minute lasts wallPerMinute.
func NewScale(wallPerMinute time.Duration) Scale {
	return Scale{WallPerMinute: wallPerMinute}
}

// DefaultScale compresses one paper minute into 250ms of wall time, the
// default used by the experiment harness.
func DefaultScale() Scale { return Scale{WallPerMinute: 250 * time.Millisecond} }

// Wall converts a duration expressed in paper minutes to wall time.
func (s Scale) Wall(paperMinutes float64) time.Duration {
	return time.Duration(paperMinutes * float64(s.WallPerMinute))
}

// Minutes converts a wall-clock duration back to paper minutes.
func (s Scale) Minutes(wall time.Duration) float64 {
	if s.WallPerMinute <= 0 {
		return 0
	}
	return float64(wall) / float64(s.WallPerMinute)
}
