//go:build goexperiment.synctest

//go:debug asynctimerchan=0

package obs

import (
	"testing"
	"testing/synctest"
	"time"
)

// Inside a bubble package time is fake and advances only when every
// goroutine is blocked, so event timestamps are exact.
func TestFakeClockTimestamps(t *testing.T) {
	synctest.Run(func() {
		tr := New()
		b := tr.Buf(nil, 0)
		b.Emit(Event{Kind: StageScheduled, Stage: 0})
		time.Sleep(3 * time.Second)
		b.Emit(Event{Kind: StageComplete, Stage: 0})
		evs := tr.Events()
		if len(evs) != 2 {
			t.Fatalf("got %d events", len(evs))
		}
		if evs[0].T != 0 || evs[1].T != 3*time.Second {
			t.Fatalf("timestamps = %v, %v; want 0, 3s", evs[0].T, evs[1].T)
		}
	})
}
