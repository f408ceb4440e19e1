package introspect

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"pado/internal/metrics"
	"pado/internal/obs"
	"pado/internal/runtime"
)

// stubSource serves a canned snapshot — the handlers' rendering logic
// is what's under test, not the manager.
type stubSource struct {
	st  *runtime.ManagerState
	met *metrics.Job
	err error
}

func (s *stubSource) Inspect(ctx context.Context) (*runtime.ManagerState, error) {
	if s.err != nil {
		return nil, s.err
	}
	return s.st, s.err
}

func (s *stubSource) Metrics() *metrics.Job { return s.met }

func testSnapshot() (*runtime.ManagerState, *metrics.Job) {
	fleet := &metrics.Job{}
	fleet.Counter("jobs_completed").Add(3)
	fleet.Gauge(metrics.GaugeJobsRunning).Set(2)
	fleet.Histogram("admission_wait_ns").Observe(1500)

	jobReg := &metrics.Job{}
	jobReg.Counter("tasks_launched").Add(7)
	jobReg.Histogram("task_compute_ns").Observe(2048)

	return &runtime.ManagerState{
		Version:     runtime.InspectVersion,
		TakenAt:     time.Unix(100, 0),
		BudgetTotal: 4,
		BudgetFree:  1,
		Jobs: []runtime.JobState{{
			ID: 1, Name: "wordcount",
			RunningFor: 5 * time.Second,
			Stages: []runtime.StageState{
				{ID: 0, Status: "done", TasksTotal: 4, TasksCommitted: 4},
				{ID: 1, Status: "running", TasksTotal: 4, TasksRunning: 2, TasksWaiting: 2},
			},
			TasksRunning: 2, TasksCommitted: 4,
			Registry: jobReg,
		}},
		Queue: []runtime.QueuedJob{{ID: 2, Name: "mlr", Demand: 3, Position: 0}},
		Nodes: []runtime.NodeState{
			{ID: "t1", Kind: "transient", SlotsFree: 2, RunningTasks: 2, Detector: "alive"},
			{ID: "r1", Kind: "reserved", SlotsFree: 4, Detector: "suspect",
				LastBeatAge: 300 * time.Millisecond, ReportedOpen: []string{"t9"}},
		},
		Breakers: []runtime.BreakerState{
			{Dest: "t9", State: "open", Fails: 5, RetryBudget: 0.5},
		},
	}, fleet
}

func startTestServer(t *testing.T, tr *obs.Tracer) (*Server, *stubSource) {
	t.Helper()
	st, fleet := testSnapshot()
	src := &stubSource{st: st, met: fleet}
	s, err := Start(Options{Addr: "127.0.0.1:0", Manager: src, Tracer: tr})
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s, src
}

func get(t *testing.T, s *Server, path string) (int, string) {
	t.Helper()
	resp, err := http.Get("http://" + s.Addr() + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s read: %v", path, err)
	}
	return resp.StatusCode, string(body)
}

func TestDisabledPlane(t *testing.T) {
	s, err := Start(Options{})
	if err != nil {
		t.Fatalf("Start with empty Addr: %v", err)
	}
	if s != nil {
		t.Fatalf("Start with empty Addr returned a server")
	}
	// The nil server must be inert, not a crash.
	if got := s.Addr(); got != "" {
		t.Errorf("nil Addr() = %q", got)
	}
	if err := s.Close(); err != nil {
		t.Errorf("nil Close() = %v", err)
	}
}

func TestStartRequiresManager(t *testing.T) {
	if _, err := Start(Options{Addr: "127.0.0.1:0"}); err == nil {
		t.Fatalf("Start without Manager succeeded")
	}
}

func TestMetricsEndpoint(t *testing.T) {
	s, _ := startTestServer(t, nil)
	code, body := get(t, s, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics = %d: %s", code, body)
	}
	for _, want := range []string{
		`pado_jobs_completed_total 3`,
		`pado_jobs_running 2`,
		`pado_tasks_launched_total{job="1"} 7`,
		`pado_task_compute_ns_count{job="1"} 1`,
		`pado_node_suspect{node="r1",kind="reserved"} 1`,
		`pado_node_suspect{node="t1",kind="transient"} 0`,
		`pado_breaker_open{dest="t9"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q\npage:\n%s", want, body)
		}
	}
	if err := metrics.LintPrometheus(strings.NewReader(body)); err != nil {
		t.Errorf("/metrics page fails lint: %v\npage:\n%s", err, body)
	}
}

func TestJobsEndpoints(t *testing.T) {
	s, _ := startTestServer(t, nil)

	code, body := get(t, s, "/jobs")
	if code != http.StatusOK {
		t.Fatalf("/jobs = %d: %s", code, body)
	}
	var jobs struct {
		Jobs []struct {
			ID         int    `json:"id"`
			Name       string `json:"name"`
			Stages     int    `json:"stages"`
			StagesDone int    `json:"stages_done"`
			TasksTotal int    `json:"tasks_total"`
		} `json:"jobs"`
		Queue []runtime.QueuedJob `json:"queue"`
	}
	if err := json.Unmarshal([]byte(body), &jobs); err != nil {
		t.Fatalf("/jobs decode: %v\n%s", err, body)
	}
	if len(jobs.Jobs) != 1 || len(jobs.Queue) != 1 {
		t.Fatalf("/jobs = %d jobs, %d queued; want 1, 1", len(jobs.Jobs), len(jobs.Queue))
	}
	j := jobs.Jobs[0]
	if j.ID != 1 || j.Name != "wordcount" || j.Stages != 2 || j.StagesDone != 1 || j.TasksTotal != 8 {
		t.Errorf("/jobs summary wrong: %+v", j)
	}

	code, body = get(t, s, "/jobs/1")
	if code != http.StatusOK {
		t.Fatalf("/jobs/1 = %d: %s", code, body)
	}
	var full runtime.JobState
	if err := json.Unmarshal([]byte(body), &full); err != nil {
		t.Fatalf("/jobs/1 decode: %v", err)
	}
	if len(full.Stages) != 2 || full.Stages[1].Status != "running" {
		t.Errorf("/jobs/1 stage detail wrong: %+v", full.Stages)
	}

	if code, _ := get(t, s, "/jobs/99"); code != http.StatusNotFound {
		t.Errorf("/jobs/99 = %d, want 404", code)
	}
	if code, _ := get(t, s, "/jobs/abc"); code != http.StatusBadRequest {
		t.Errorf("/jobs/abc = %d, want 400", code)
	}
}

func TestClusterDetectorState(t *testing.T) {
	s, _ := startTestServer(t, nil)

	code, body := get(t, s, "/cluster")
	if code != http.StatusOK {
		t.Fatalf("/cluster = %d", code)
	}
	var cl struct {
		BudgetTotal int                 `json:"budget_total"`
		BudgetFree  int                 `json:"budget_free"`
		Nodes       []runtime.NodeState `json:"nodes"`
	}
	if err := json.Unmarshal([]byte(body), &cl); err != nil {
		t.Fatalf("/cluster decode: %v", err)
	}
	if cl.BudgetTotal != 4 || cl.BudgetFree != 1 || len(cl.Nodes) != 2 {
		t.Errorf("/cluster wrong: %+v", cl)
	}

	code, body = get(t, s, "/detector")
	if code != http.StatusOK {
		t.Fatalf("/detector = %d", code)
	}
	var det struct {
		Enabled bool `json:"enabled"`
		Nodes   []struct {
			ID       string `json:"id"`
			Detector string `json:"detector"`
		} `json:"nodes"`
		Breakers []runtime.BreakerState `json:"breakers"`
	}
	if err := json.Unmarshal([]byte(body), &det); err != nil {
		t.Fatalf("/detector decode: %v", err)
	}
	if !det.Enabled || len(det.Nodes) != 2 || len(det.Breakers) != 1 {
		t.Errorf("/detector wrong: %+v", det)
	}

	code, body = get(t, s, "/state")
	if code != http.StatusOK {
		t.Fatalf("/state = %d", code)
	}
	var full runtime.ManagerState
	if err := json.Unmarshal([]byte(body), &full); err != nil {
		t.Fatalf("/state decode: %v", err)
	}
	if full.Version != runtime.InspectVersion || len(full.Jobs) != 1 {
		t.Errorf("/state wrong: version=%d jobs=%d", full.Version, len(full.Jobs))
	}
}

func TestInspectErrorBecomes503(t *testing.T) {
	s, src := startTestServer(t, nil)
	src.err = fmt.Errorf("manager wedged")
	for _, path := range []string{"/metrics", "/state", "/jobs", "/jobs/1", "/cluster", "/detector"} {
		if code, _ := get(t, s, path); code != http.StatusServiceUnavailable {
			t.Errorf("%s with failing Inspect = %d, want 503", path, code)
		}
	}
}

func TestEventsStream(t *testing.T) {
	tr := obs.New()
	s, _ := startTestServer(t, tr)
	b := tr.Buf(nil, 0)

	resp, err := http.Get("http://" + s.Addr() + "/events?kinds=task_launched")
	if err != nil {
		t.Fatalf("GET /events: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/events = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("/events Content-Type = %q", ct)
	}

	// The subscriber attaches before the handler writes its opening
	// comment, but give the HTTP round-trip a beat anyway, then emit a
	// matching and a filtered-out event.
	deadline := time.After(5 * time.Second)
	sc := bufio.NewScanner(resp.Body)
	lines := make(chan string)
	go func() {
		for sc.Scan() {
			lines <- sc.Text()
		}
		close(lines)
	}()

	// First frame is the opening comment; wait for it so we know the
	// subscriber is registered before emitting.
	for {
		select {
		case ln := <-lines:
			if strings.HasPrefix(ln, ":") {
				goto subscribed
			}
		case <-deadline:
			t.Fatalf("no opening SSE comment")
		}
	}
subscribed:
	b.Emit(obs.Event{Kind: obs.FetchDone, Task: 9}) // filtered out
	b.Emit(obs.Event{Kind: obs.TaskLaunched, Job: 1, Task: 3, Exec: "t1/0"})

	var eventLine, dataLine string
	for eventLine == "" || dataLine == "" {
		select {
		case ln, ok := <-lines:
			if !ok {
				t.Fatalf("stream closed early (event=%q data=%q)", eventLine, dataLine)
			}
			switch {
			case strings.HasPrefix(ln, "event: "):
				eventLine = ln
			case strings.HasPrefix(ln, "data: "):
				dataLine = ln
			}
		case <-deadline:
			t.Fatalf("no event received (event=%q data=%q)", eventLine, dataLine)
		}
	}
	if eventLine != "event: task_launched" {
		t.Errorf("event line = %q (fetch_done should have been filtered)", eventLine)
	}
	var ev struct {
		Kind string `json:"kind"`
		Job  int    `json:"job"`
		Task int    `json:"task"`
		Exec string `json:"exec"`
	}
	if err := json.Unmarshal([]byte(strings.TrimPrefix(dataLine, "data: ")), &ev); err != nil {
		t.Fatalf("data decode: %v (%q)", err, dataLine)
	}
	if ev.Kind != "task_launched" || ev.Job != 1 || ev.Task != 3 || ev.Exec != "t1/0" {
		t.Errorf("event payload wrong: %+v", ev)
	}
}

func TestEventsBadKindAndNilTracer(t *testing.T) {
	tr := obs.New()
	s, _ := startTestServer(t, tr)
	if code, body := get(t, s, "/events?kinds=nope"); code != http.StatusBadRequest {
		t.Errorf("/events?kinds=nope = %d: %s", code, body)
	}

	s2, _ := startTestServer(t, nil)
	if code, _ := get(t, s2, "/events"); code != http.StatusServiceUnavailable {
		t.Errorf("/events with nil tracer = %d, want 503", code)
	}
}

func TestStacksAndIndex(t *testing.T) {
	s, _ := startTestServer(t, nil)
	code, body := get(t, s, "/debug/stacks")
	if code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Errorf("/debug/stacks = %d, body %.60q", code, body)
	}
	code, body = get(t, s, "/")
	if code != http.StatusOK || !strings.Contains(body, "/metrics") {
		t.Errorf("/ = %d, body %.60q", code, body)
	}
	if code, _ := get(t, s, "/nope"); code != http.StatusNotFound {
		t.Errorf("/nope = %d, want 404", code)
	}
}

func TestKindsListsVocabulary(t *testing.T) {
	ks := Kinds()
	if len(ks) == 0 {
		t.Fatalf("Kinds() empty")
	}
	found := false
	for _, k := range ks {
		if k == "task_launched" {
			found = true
		}
	}
	if !found {
		t.Errorf("Kinds() missing task_launched: %v", ks)
	}
}
