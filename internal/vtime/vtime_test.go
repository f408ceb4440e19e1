package vtime

import (
	"testing"
	"time"
)

func TestScaleRoundTrip(t *testing.T) {
	s := NewScale(100 * time.Millisecond)
	if got := s.Wall(3); got != 300*time.Millisecond {
		t.Errorf("Wall(3) = %v, want 300ms", got)
	}
	if got := s.Minutes(450 * time.Millisecond); got != 4.5 {
		t.Errorf("Minutes(450ms) = %v, want 4.5", got)
	}
	for _, mins := range []float64{0, 0.5, 1, 17.25, 90} {
		if got := s.Minutes(s.Wall(mins)); got != mins {
			t.Errorf("round trip %v minutes -> %v", mins, got)
		}
	}
}

func TestScaleZeroGuards(t *testing.T) {
	var s Scale
	if got := s.Minutes(time.Second); got != 0 {
		t.Errorf("zero scale Minutes = %v, want 0", got)
	}
	if got := s.Wall(5); got != 0 {
		t.Errorf("zero scale Wall = %v, want 0", got)
	}
}

func TestDefaultScale(t *testing.T) {
	if DefaultScale().WallPerMinute != 250*time.Millisecond {
		t.Errorf("unexpected default scale %v", DefaultScale().WallPerMinute)
	}
}
