package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"pado/internal/metrics"
	"pado/internal/vtime"
)

func TestNilTracerIsNoOp(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Fatal("nil tracer reports enabled")
	}
	b := tr.Buf(nil, 0)
	if b != nil {
		t.Fatalf("nil tracer handed out non-nil buf %v", b)
	}
	b.Emit(Event{Kind: TaskLaunched}) // must not panic
	if evs := tr.Events(); evs != nil {
		t.Fatalf("nil tracer returned events: %v", evs)
	}
	if tr.Len() != 0 {
		t.Fatalf("nil tracer Len = %d", tr.Len())
	}
}

// TestConcurrentEmitMergesMonotonic is the tentpole concurrency
// contract: N goroutines emitting into their own buffers merge into one
// event stream monotonically ordered by virtual time, with no event
// lost.
func TestConcurrentEmitMergesMonotonic(t *testing.T) {
	tr := New()
	const goroutines = 16
	const perG = 500

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		b := tr.Buf(nil, 0) // one buffer per goroutine
		wg.Add(1)
		go func(g int, b *Buf) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				b.Emit(Event{Kind: TaskFinished, Stage: g, Task: i, Exec: fmt.Sprintf("t%d", g)})
			}
		}(g, b)
	}
	wg.Wait()

	evs := tr.Events()
	if len(evs) != goroutines*perG {
		t.Fatalf("merged %d events, want %d", len(evs), goroutines*perG)
	}
	if tr.Len() != len(evs) {
		t.Fatalf("Len = %d, Events = %d", tr.Len(), len(evs))
	}
	seen := make(map[int]int) // stage -> count
	for i, ev := range evs {
		if i > 0 && ev.T < evs[i-1].T {
			t.Fatalf("event %d out of order: %v after %v", i, ev.T, evs[i-1].T)
		}
		seen[ev.Stage]++
	}
	for g := 0; g < goroutines; g++ {
		if seen[g] != perG {
			t.Fatalf("goroutine %d: %d events survived, want %d", g, seen[g], perG)
		}
	}
	// Per-buffer order must be preserved for same-timestamp events
	// (stable merge): task indices within one stage stay increasing
	// whenever timestamps tie, which the fake-clock test below pins
	// down exactly; here we just require global monotonicity held.
}

// TestParseKindRoundTrip pins the name table: every kind's String must
// parse back to the same kind, unknown names must not parse, and the
// sentinel must stay out of reach.
func TestParseKindRoundTrip(t *testing.T) {
	for k := KindNone; k < kindCount; k++ {
		name := k.String()
		if name == "" || name == "unknown" {
			t.Fatalf("kind %d has no name", k)
		}
		got, ok := ParseKind(name)
		if !ok || got != k {
			t.Errorf("ParseKind(%q) = %v, %v; want %v, true", name, got, ok, k)
		}
	}
	if _, ok := ParseKind("no_such_kind"); ok {
		t.Error("ParseKind accepted an unknown name")
	}
	if _, ok := ParseKind(""); ok {
		t.Error("ParseKind accepted the empty string")
	}
}

// TestEventsWhileEmitting drives concurrent Buf.Emit against repeated
// Tracer.Events/Len merges (the analyzer and exporters snapshot while
// executors may still be draining). Run under -race this pins the
// locking contract: snapshots are consistent prefixes, never torn.
func TestEventsWhileEmitting(t *testing.T) {
	tr := New()
	const goroutines = 8
	const perG = 400

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < goroutines; g++ {
		b := tr.Buf(nil, 0)
		wg.Add(1)
		go func(g int, b *Buf) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				b.Emit(Event{Kind: PushStarted, Stage: g, Task: i, Bytes: int64(i)})
			}
		}(g, b)
	}
	// Merge continuously while emitters run; every snapshot must be
	// internally ordered and no larger than the final count.
	var snaps int
	go func() {
		defer close(stop)
		wg.Wait()
	}()
	for {
		evs := tr.Events()
		if len(evs) > goroutines*perG {
			t.Errorf("snapshot invented events: %d", len(evs))
		}
		for i := 1; i < len(evs); i++ {
			if evs[i].T < evs[i-1].T {
				t.Fatalf("snapshot out of order at %d", i)
			}
		}
		if n := tr.Len(); n > goroutines*perG {
			t.Errorf("Len overcounted: %d", n)
		}
		snaps++
		select {
		case <-stop:
			if final := tr.Events(); len(final) != goroutines*perG {
				t.Fatalf("final merge %d events, want %d (after %d live snapshots)",
					len(final), goroutines*perG, snaps)
			}
			return
		default:
		}
	}
}

// TestBufFoldsCounters pins the one kind-to-counter table: each emission
// adds one to its kind's counter in the buffer's registry, under the
// counter's own name for kinds that repeat one and as obs.<kind>
// otherwise, whether or not a tracer records the stream.
func TestBufFoldsCounters(t *testing.T) {
	for _, tr := range []*Tracer{nil, New()} {
		reg := &metrics.Job{}
		b := tr.Buf(reg, 3)
		b.Emit(Event{Kind: ContainerEvicted, Exec: "t1"})
		b.Emit(Event{Kind: ContainerEvicted, Exec: "t2"})
		b.Emit(Event{Kind: CacheHit})
		b.Emit(Event{Kind: JobCompleted})
		b.Emit(Event{Kind: JobTimedOut})
		snap := reg.Snapshot(0, false)
		want := map[string]int64{"obs.container_evicted": 2, "jobs_completed": 2}
		if snap.CacheHits != 1 || !reflect.DeepEqual(snap.Named, want) {
			t.Errorf("tracer %v: cache hits %d, named %v; want 1 and %v", tr != nil, snap.CacheHits, snap.Named, want)
		}
		if n := len(tr.Events()); tr != nil && (n != 5 || tr.Events()[0].Job != 3) {
			t.Errorf("recorded %d events %v, want 5 stamped job 3", n, tr.Events())
		}
	}
	// Executor slots share their executor's buffer, so its counter cache
	// is filled and read from several goroutines at once.
	reg := &metrics.Job{}
	b := New().Buf(reg, 0)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				b.Emit(Event{Kind: CacheMiss})
			}
		}()
	}
	wg.Wait()
	if n := reg.Snapshot(0, false).CacheMisses; n != 800 {
		t.Errorf("concurrent emits counted %d cache misses, want 800", n)
	}
	if CacheMiss.Counter() != metrics.NameCacheMisses || TaskLaunched.Counter() != "obs.task_launched" || KindNone.Counter() != "" {
		t.Errorf("table: %q %q %q", CacheMiss.Counter(), TaskLaunched.Counter(), KindNone.Counter())
	}
}

// sampleEvents builds a tiny but representative run: a task span, a push
// span, a fetch span, an eviction, a relaunch, and cache traffic.
func sampleEvents() []Event {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	return []Event{
		{T: ms(0), Kind: ContainerUp, Exec: "t1", Note: "transient"},
		{T: ms(0), Kind: ContainerUp, Exec: "r2", Note: "reserved"},
		{T: ms(1), Kind: StageScheduled, Stage: 0},
		{T: ms(1), Kind: TaskLaunched, Stage: 0, Frag: ReservedFrag, Task: 0, Exec: "r2"},
		{T: ms(2), Kind: ReceiverReady, Stage: 0, Task: 0, Exec: "r2"},
		{T: ms(2), Kind: TaskLaunched, Stage: 0, Frag: 0, Task: 3, Attempt: 0, Exec: "t1"},
		{T: ms(3), Kind: CacheMiss, Stage: 0, Task: 3, Exec: "t1"},
		{T: ms(4), Kind: FetchStarted, Stage: 0, Frag: 0, Task: 3, Exec: "t1"},
		{T: ms(6), Kind: FetchDone, Stage: 0, Frag: 0, Task: 3, Exec: "t1", Bytes: 4096},
		{T: ms(7), Kind: TaskFinished, Stage: 0, Frag: 0, Task: 3, Exec: "t1"},
		{T: ms(7), Kind: PushStarted, Stage: 0, Frag: 0, Task: 3, Exec: "t1", Bytes: 2048},
		{T: ms(8), Kind: ContainerEvicted, Exec: "t1"},
		{T: ms(8), Kind: TaskRelaunched, Stage: 0, Frag: 0, Task: 3, Attempt: 1},
		{T: ms(9), Kind: PushCommitted, Stage: 0, Frag: 0, Task: 3, Exec: "t1"},
		{T: ms(10), Kind: TaskFinished, Stage: 0, Frag: ReservedFrag, Task: 0, Exec: "r2"},
		{T: ms(10), Kind: StageComplete, Stage: 0},
	}
}

// TestChromeTraceRoundTrips pins the exporter contract: the output is
// valid JSON in the trace_event object form, span pairs fold into "X"
// slices, and every input event survives into the output.
func TestChromeTraceRoundTrips(t *testing.T) {
	events := sampleEvents()
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, events, vtime.Scale{}); err != nil {
		t.Fatal(err)
	}

	var parsed struct {
		TraceEvents []struct {
			Name  string         `json:"name"`
			Phase string         `json:"ph"`
			TS    float64        `json:"ts"`
			Dur   float64        `json:"dur"`
			PID   int            `json:"pid"`
			TID   int            `json:"tid"`
			Args  map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("exporter emitted invalid JSON: %v\n%s", err, buf.String())
	}
	if parsed.DisplayTimeUnit == "" {
		t.Fatal("missing displayTimeUnit")
	}

	var slices, instants, meta int
	names := make(map[string]int)
	for _, ce := range parsed.TraceEvents {
		names[ce.Name]++
		switch ce.Phase {
		case "X":
			slices++
			if ce.Dur <= 0 {
				t.Errorf("slice %q has non-positive dur %v", ce.Name, ce.Dur)
			}
		case "i":
			instants++
		case "M":
			meta++
		default:
			t.Errorf("unexpected phase %q", ce.Phase)
		}
	}
	// Spans: transient task (launch->finish), reserved task, push
	// (start->commit), fetch (start->done).
	if slices != 4 {
		t.Errorf("slices = %d, want 4 (task, reserved_task, push, fetch)", slices)
	}
	for _, want := range []string{"task", "reserved_task", "push", "fetch", "container_evicted", "task_relaunched"} {
		if names[want] == 0 {
			t.Errorf("output missing %q event", want)
		}
	}
	if meta < 3 { // process_name + at least master/t1/r2 thread names
		t.Errorf("only %d metadata events", meta)
	}

	// Timestamps must be monotone within the non-meta stream ordering
	// guarantees aside, ts values must be finite and non-negative.
	for _, ce := range parsed.TraceEvents {
		if ce.TS < 0 {
			t.Errorf("negative ts on %q", ce.Name)
		}
	}
}

func TestChromeTraceScaledTimestamps(t *testing.T) {
	scale := vtime.NewScale(10 * time.Millisecond) // 10ms wall = 1 paper minute
	events := []Event{
		{T: 10 * time.Millisecond, Kind: StageScheduled, Stage: 0},
		{T: 20 * time.Millisecond, Kind: StageComplete, Stage: 0},
	}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, events, scale); err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			TS   float64 `json:"ts"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatal(err)
	}
	for _, ce := range parsed.TraceEvents {
		if ce.Name == "stage_scheduled" && ce.TS != 1e6 {
			t.Errorf("scaled ts = %v, want 1e6 (1 paper minute = 1s of trace)", ce.TS)
		}
	}
}

func TestTimelineSummary(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteTimeline(&buf, sampleEvents(), vtime.Scale{}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"stage 0 scheduled", "stage 0 complete",
		"container t1 evicted",
		"containers: 2 launched, 1 evicted, 0 failed",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("timeline missing %q:\n%s", want, out)
		}
	}
}

// BenchmarkEmitDisabled measures the no-op path: a nil Buf must cost a
// pointer check, nothing more.
func BenchmarkEmitDisabled(b *testing.B) {
	var buf *Buf
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf.Emit(Event{Kind: TaskFinished, Stage: 1, Task: i})
	}
}

// BenchmarkEmitEnabled measures the enabled path for contrast.
func BenchmarkEmitEnabled(b *testing.B) {
	tr := New()
	buf := tr.Buf(nil, 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf.Emit(Event{Kind: TaskFinished, Stage: 1, Task: i})
	}
}
