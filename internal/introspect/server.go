// Package introspect is the runtime's live introspection plane: a
// small HTTP server exposing the resident JobManager's state while
// jobs run. Every surface the repo already has (obs traces,
// analyze.Report, padoreport) is post-hoc; this one answers "what is
// the service doing right now":
//
//	/metrics      Prometheus text: fleet counters/gauges/histograms,
//	              per-job registries labeled {job="<id>"}, per-node
//	              detector/slot samples
//	/state        full runtime.ManagerState snapshot (JSON)
//	/jobs         admitted jobs + admission queue (JSON)
//	/jobs/{id}    one job with per-stage detail (JSON)
//	/cluster      budget + per-node slots/assignments (JSON)
//	/detector     failure-detector and breaker view (JSON)
//	/events       live obs event stream (SSE), ?kinds= filterable
//	/debug/pprof  standard pprof handlers
//	/debug/stacks full goroutine dump (testutil.Watchdog's dumper)
//
// The plane follows the nil-Tracer discipline: a nil *Server is valid
// and every method is a no-op, so runs without -http carry zero
// overhead — no listener, no goroutines, no extra allocations.
package introspect

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"pado/internal/metrics"
	"pado/internal/obs"
	"pado/internal/runtime"
	"pado/internal/testutil"
)

// Source is the introspection plane's view of a JobManager (the
// concrete *runtime.JobManager satisfies it; tests stub it).
type Source interface {
	// Inspect returns a consistent state snapshot built on the manager
	// event loop.
	Inspect(ctx context.Context) (*runtime.ManagerState, error)
	// Metrics returns the fleet-wide metrics registry.
	Metrics() *metrics.Job
}

// Options parameterizes Start.
type Options struct {
	// Addr is the listen address ("127.0.0.1:7777"; ":0" picks a free
	// port). Empty disables the plane: Start returns (nil, nil).
	Addr string
	// Manager is the inspected manager. Required when Addr is set.
	Manager Source
	// Tracer feeds /events; nil serves 503 there and leaves the rest of
	// the plane up.
	Tracer *obs.Tracer
	// InspectTimeout bounds each snapshot request against a wedged
	// manager loop. Default 5s.
	InspectTimeout time.Duration
}

// Server is a running introspection endpoint. A nil *Server is the
// disabled plane; Close and Addr are nil-safe no-ops.
type Server struct {
	opts Options
	ln   net.Listener
	srv  *http.Server
}

// Start binds the listener and begins serving. Empty Addr returns
// (nil, nil): the disabled plane.
func Start(opts Options) (*Server, error) {
	if opts.Addr == "" {
		return nil, nil
	}
	if opts.Manager == nil {
		return nil, fmt.Errorf("introspect: Options.Manager is required")
	}
	if opts.InspectTimeout <= 0 {
		opts.InspectTimeout = 5 * time.Second
	}
	ln, err := net.Listen("tcp", opts.Addr)
	if err != nil {
		return nil, fmt.Errorf("introspect: listen %s: %w", opts.Addr, err)
	}
	s := &Server{opts: opts, ln: ln}
	mux := http.NewServeMux()
	mux.HandleFunc("/", s.handleIndex)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/state", s.handleState)
	mux.HandleFunc("/jobs", s.handleJobs)
	mux.HandleFunc("/jobs/", s.handleJob)
	mux.HandleFunc("/cluster", s.handleCluster)
	mux.HandleFunc("/detector", s.handleDetector)
	mux.HandleFunc("/events", s.handleEvents)
	mux.HandleFunc("/debug/stacks", s.handleStacks)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	s.srv = &http.Server{Handler: mux}
	go s.srv.Serve(ln) //nolint:errcheck // Serve returns ErrServerClosed on Close
	return s, nil
}

// Addr returns the bound listen address (resolving ":0" to the actual
// port). Nil-safe: the disabled plane reports "".
func (s *Server) Addr() string {
	if s == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Close shuts the server down, closing the listener and any live
// connections (including open SSE streams). Nil-safe.
func (s *Server) Close() error {
	if s == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if err != nil {
		// SSE streams never go idle; force them down.
		err = s.srv.Close()
	}
	return err
}

// snapshot fetches one consistent manager snapshot, bounded by the
// inspect timeout and the client's disconnect.
func (s *Server) snapshot(r *http.Request) (*runtime.ManagerState, error) {
	ctx, cancel := context.WithTimeout(r.Context(), s.opts.InspectTimeout)
	defer cancel()
	return s.opts.Manager.Inspect(ctx)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client disconnects are not actionable
}

func httpErr(w http.ResponseWriter, code int, err error) {
	http.Error(w, err.Error(), code)
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	fmt.Fprint(w, `pado introspection plane
  /metrics       Prometheus text exposition
  /state         full manager snapshot (JSON)
  /jobs          admitted jobs + admission queue (JSON)
  /jobs/{id}     one job, per-stage detail (JSON)
  /cluster       budget + per-node slots (JSON)
  /detector      failure detector + breakers (JSON)
  /events        live event stream (SSE); ?kinds=task_launched,push_committed
  /debug/stacks  goroutine dump
  /debug/pprof/  pprof handlers
`)
}

// handleMetrics renders the Prometheus page: the fleet registry
// unlabeled, each job's registry under {job="<id>"}, and per-node
// samples derived from the same consistent snapshot.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	st, err := s.snapshot(r)
	if err != nil {
		httpErr(w, http.StatusServiceUnavailable, err)
		return
	}
	p := metrics.NewPromSet()
	p.Gather(s.opts.Manager.Metrics())
	for _, j := range st.Jobs {
		p.Gather(j.Registry, metrics.Label{Name: "job", Value: strconv.Itoa(j.ID)})
	}
	for _, n := range st.Nodes {
		lbl := []metrics.Label{{Name: "node", Value: n.ID}, {Name: "kind", Value: n.Kind}}
		suspect := int64(0)
		if n.Detector == "suspect" {
			suspect = 1
		}
		p.AddGauge("node_suspect", suspect, lbl...)
		p.AddGauge("node_slots_free", int64(n.SlotsFree), lbl...)
		p.AddGauge("node_running_tasks", int64(n.RunningTasks), lbl...)
	}
	for _, b := range st.Breakers {
		open := int64(0)
		if b.State != "closed" {
			open = 1
		}
		p.AddGauge("breaker_open", open, metrics.Label{Name: "dest", Value: b.Dest})
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	p.Write(w) //nolint:errcheck // client disconnects are not actionable
}

func (s *Server) handleState(w http.ResponseWriter, r *http.Request) {
	st, err := s.snapshot(r)
	if err != nil {
		httpErr(w, http.StatusServiceUnavailable, err)
		return
	}
	writeJSON(w, st)
}

// jobSummary is /jobs' per-job row: everything but the stage detail.
type jobSummary struct {
	ID             int           `json:"id"`
	Name           string        `json:"name"`
	RunningFor     time.Duration `json:"running_for_ns"`
	Finished       bool          `json:"finished"`
	Stages         int           `json:"stages"`
	StagesDone     int           `json:"stages_done"`
	TasksRunning   int           `json:"tasks_running"`
	TasksCommitted int           `json:"tasks_committed"`
	TasksTotal     int           `json:"tasks_total"`
}

func summarize(j runtime.JobState) jobSummary {
	sum := jobSummary{
		ID: j.ID, Name: j.Name, RunningFor: j.RunningFor, Finished: j.Finished,
		Stages:       len(j.Stages),
		TasksRunning: j.TasksRunning, TasksCommitted: j.TasksCommitted,
	}
	for _, st := range j.Stages {
		if st.Status == "done" {
			sum.StagesDone++
		}
		sum.TasksTotal += st.TasksTotal
	}
	return sum
}

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	st, err := s.snapshot(r)
	if err != nil {
		httpErr(w, http.StatusServiceUnavailable, err)
		return
	}
	out := struct {
		TakenAt time.Time           `json:"taken_at"`
		Jobs    []jobSummary        `json:"jobs"`
		Queue   []runtime.QueuedJob `json:"queue"`
	}{TakenAt: st.TakenAt, Jobs: []jobSummary{}, Queue: st.Queue}
	if out.Queue == nil {
		out.Queue = []runtime.QueuedJob{}
	}
	for _, j := range st.Jobs {
		out.Jobs = append(out.Jobs, summarize(j))
	}
	writeJSON(w, out)
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	idStr := strings.TrimPrefix(r.URL.Path, "/jobs/")
	id, err := strconv.Atoi(idStr)
	if err != nil {
		httpErr(w, http.StatusBadRequest, fmt.Errorf("bad job id %q", idStr))
		return
	}
	st, err := s.snapshot(r)
	if err != nil {
		httpErr(w, http.StatusServiceUnavailable, err)
		return
	}
	for _, j := range st.Jobs {
		if j.ID == id {
			writeJSON(w, j)
			return
		}
	}
	httpErr(w, http.StatusNotFound, fmt.Errorf("job %d not admitted (finished, queued, or unknown)", id))
}

func (s *Server) handleCluster(w http.ResponseWriter, r *http.Request) {
	st, err := s.snapshot(r)
	if err != nil {
		httpErr(w, http.StatusServiceUnavailable, err)
		return
	}
	out := struct {
		TakenAt     time.Time           `json:"taken_at"`
		BudgetTotal int                 `json:"budget_total"`
		BudgetFree  int                 `json:"budget_free"`
		Broken      string              `json:"broken,omitempty"`
		Nodes       []runtime.NodeState `json:"nodes"`
	}{st.TakenAt, st.BudgetTotal, st.BudgetFree, st.Broken, st.Nodes}
	if out.Nodes == nil {
		out.Nodes = []runtime.NodeState{}
	}
	writeJSON(w, out)
}

func (s *Server) handleDetector(w http.ResponseWriter, r *http.Request) {
	st, err := s.snapshot(r)
	if err != nil {
		httpErr(w, http.StatusServiceUnavailable, err)
		return
	}
	type nodeView struct {
		ID           string        `json:"id"`
		Kind         string        `json:"kind"`
		Detector     string        `json:"detector"`
		LastBeatAge  time.Duration `json:"last_beat_age_ns"`
		ReportedOpen []string      `json:"reported_open,omitempty"`
	}
	out := struct {
		TakenAt  time.Time              `json:"taken_at"`
		Enabled  bool                   `json:"enabled"`
		Nodes    []nodeView             `json:"nodes"`
		Breakers []runtime.BreakerState `json:"breakers"`
	}{TakenAt: st.TakenAt, Nodes: []nodeView{}, Breakers: st.Breakers}
	if out.Breakers == nil {
		out.Breakers = []runtime.BreakerState{}
	}
	for _, n := range st.Nodes {
		if n.Detector == "" {
			continue
		}
		out.Enabled = true
		out.Nodes = append(out.Nodes, nodeView{
			ID: n.ID, Kind: n.Kind, Detector: n.Detector,
			LastBeatAge: n.LastBeatAge, ReportedOpen: n.ReportedOpen,
		})
	}
	writeJSON(w, out)
}

// handleEvents streams live obs events as Server-Sent Events off the
// tracer's fan-out. ?kinds=task_launched,push_committed filters; the
// subscriber's bounded buffer means a slow client drops events (the
// stream reports the running drop count in keepalive comments) and
// never stalls emitters.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	tr := s.opts.Tracer
	if tr == nil {
		httpErr(w, http.StatusServiceUnavailable, fmt.Errorf("tracing disabled: no event stream"))
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		httpErr(w, http.StatusInternalServerError, fmt.Errorf("streaming unsupported"))
		return
	}
	var kinds []obs.Kind
	if q := r.URL.Query().Get("kinds"); q != "" {
		for _, name := range strings.Split(q, ",") {
			k, ok := obs.ParseKind(strings.TrimSpace(name))
			if !ok {
				httpErr(w, http.StatusBadRequest, fmt.Errorf("unknown event kind %q", name))
				return
			}
			kinds = append(kinds, k)
		}
	}
	sub := tr.Subscribe(1024, kinds...)
	defer sub.Close()

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	fmt.Fprintf(w, ": pado event stream\n\n")
	fl.Flush()

	keepalive := time.NewTicker(5 * time.Second)
	defer keepalive.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case <-keepalive.C:
			fmt.Fprintf(w, ": keepalive dropped=%d\n\n", sub.Dropped())
			fl.Flush()
		case ev := <-sub.C():
			data, err := json.Marshal(sseEvent(ev))
			if err != nil {
				continue
			}
			fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.Kind, data)
			fl.Flush()
		}
	}
}

// sseEvent is the JSON projection of one obs.Event: kind as its
// string name, zero-valued fields elided.
func sseEvent(ev obs.Event) map[string]any {
	m := map[string]any{
		"t_ns": int64(ev.T),
		"kind": ev.Kind.String(),
	}
	if ev.Job != 0 {
		m["job"] = ev.Job
	}
	if ev.Stage != 0 {
		m["stage"] = ev.Stage
	}
	if ev.Frag != 0 {
		m["frag"] = ev.Frag
	}
	if ev.Task != 0 {
		m["task"] = ev.Task
	}
	if ev.Attempt != 0 {
		m["attempt"] = ev.Attempt
	}
	if ev.Exec != "" {
		m["exec"] = ev.Exec
	}
	if ev.Bytes != 0 {
		m["bytes"] = ev.Bytes
	}
	if ev.Note != "" {
		m["note"] = ev.Note
	}
	return m
}

func (s *Server) handleStacks(w http.ResponseWriter, r *http.Request) {
	debug := 2
	if d := r.URL.Query().Get("debug"); d != "" {
		if v, err := strconv.Atoi(d); err == nil {
			debug = v
		}
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	testutil.DumpGoroutines(w, debug) //nolint:errcheck // best-effort dump
}

// Kinds returns every obs event kind name, sorted — /events' filter
// vocabulary, used by padotop's usage text.
func Kinds() []string {
	var out []string
	for k := obs.Kind(1); ; k++ {
		name := k.String()
		if name == "unknown" {
			break
		}
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
