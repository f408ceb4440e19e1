package runtime

import (
	"context"
	"strings"
	"testing"
	"time"

	"pado/internal/cluster"
	"pado/internal/metrics"
	"pado/internal/obs"
	"pado/internal/simnet"
	"pado/internal/trace"
)

// TestEventQueueOverflow proves a full manager event queue fails loudly:
// the drop is counted and the overflow channel carries an abort error,
// instead of the listener silently blocking or the event vanishing.
func TestEventQueueOverflow(t *testing.T) {
	cl := newTestCluster(t, 2, 1, trace.RateNone)
	met := &metrics.Job{}
	m := newManager(cl, ManagerConfig{Metrics: met})
	m.events = make(chan event, 1)

	// Nobody drains m.events, so the first post fills the queue and the
	// next two overflow.
	for i := 0; i < 3; i++ {
		m.ContainerEvicted(&cluster.Container{ID: "t0"})
	}
	select {
	case err := <-m.overflow:
		if !strings.Contains(err.Error(), "event queue full") {
			t.Errorf("overflow error = %v", err)
		}
	default:
		t.Fatal("no overflow error reported")
	}
	if n := met.Counter("event_queue_overflow").Load(); n != 2 {
		t.Errorf("event_queue_overflow = %d, want 2", n)
	}
}

// TestFailureThresholdAborts tightens MaxTaskFailures and makes every
// transient->reserved dial fail: the job must abort with a JobAborted
// event rather than retrying forever.
func TestFailureThresholdAborts(t *testing.T) {
	pipe, _ := buildWordCount(4, 50)
	cl := newTestCluster(t, 4, 2, trace.RateNone)
	cl.Net().InjectFault(simnet.LinkFault{From: "t", To: "r", FailDial: true})
	tracer := obs.New()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	_, err := Run(ctx, cl, pipe.Graph(), Config{
		MaxTaskFailures: 2,
		Tracer:          tracer,
	})
	if err == nil {
		t.Fatal("expected the failure threshold to abort the job")
	}
	if !strings.Contains(err.Error(), "failed") {
		t.Errorf("abort error = %v", err)
	}
	aborted := false
	for _, ev := range tracer.Events() {
		if ev.Kind == obs.JobAborted {
			aborted = true
			break
		}
	}
	if !aborted {
		t.Error("no JobAborted event emitted on threshold abort")
	}
}
