package metrics

import (
	"strings"
	"testing"
)

func TestGaugeRegistry(t *testing.T) {
	var j Job
	g := j.Gauge(GaugeTasksRunning)
	g.Set(5)
	g.Add(-2)
	if got := j.Gauge(GaugeTasksRunning).Load(); got != 3 {
		t.Fatalf("gauge = %d, want 3", got)
	}
	j.Gauge("alpha").Set(1)
	var names []string
	j.EachGauge(func(name string, v int64) { names = append(names, name) })
	if len(names) != 2 || names[0] != "alpha" || names[1] != GaugeTasksRunning {
		t.Fatalf("EachGauge order = %v", names)
	}
}

func TestPromWriteValid(t *testing.T) {
	fleet := &Job{}
	fleet.Counter(NameEvictions).Add(3)
	fleet.Counter("conn_dials").Add(7)
	fleet.Gauge(GaugeJobsRunning).Set(2)

	j1 := &Job{}
	j1.Counter(NameOriginalTasks).Add(10)
	j1.Gauge(GaugeTasksRunning).Set(4)
	h := j1.Histogram("task_compute_ns")
	h.Observe(100)
	h.Observe(1 << 20)
	h.Observe(1 << 30)

	p := NewPromSet()
	p.Gather(fleet)
	p.Gather(j1, Label{"job", "1"})
	p.AddGauge("node_state", 1, Label{"node", "t0"}, Label{"kind", "transient"})
	p.AddGauge("node_state", 0, Label{"node", "r0"}, Label{"kind", "reserved"})

	var b strings.Builder
	if err := p.Write(&b); err != nil {
		t.Fatalf("write: %v", err)
	}
	out := b.String()

	for _, want := range []string{
		"# TYPE pado_evictions_total counter",
		"pado_evictions_total 3",
		`pado_evictions_total{job="1"} 0`,
		"# TYPE pado_jobs_running gauge",
		"# TYPE pado_task_compute_ns histogram",
		`pado_task_compute_ns_bucket{job="1",le="+Inf"} 3`,
		`pado_task_compute_ns_count{job="1"} 3`,
		`pado_node_state{node="t0",kind="transient"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n---\n%s", want, out)
		}
	}
	// Exactly one TYPE line per family even though two registries
	// contributed samples.
	if n := strings.Count(out, "# TYPE pado_evictions_total "); n != 1 {
		t.Errorf("%d TYPE lines for pado_evictions_total, want 1", n)
	}
	if err := LintPrometheus(strings.NewReader(out)); err != nil {
		t.Fatalf("self-lint failed: %v\n---\n%s", err, out)
	}
}

func TestPromLabelEscaping(t *testing.T) {
	p := NewPromSet()
	p.AddGauge("g", 1, Label{"note", "a\"b\\c\nd"})
	var b strings.Builder
	if err := p.Write(&b); err != nil {
		t.Fatal(err)
	}
	want := `pado_g{note="a\"b\\c\nd"} 1`
	if !strings.Contains(b.String(), want) {
		t.Fatalf("escaping: got %q, want line %q", b.String(), want)
	}
	if err := LintPrometheus(strings.NewReader(b.String())); err != nil {
		t.Fatalf("lint: %v", err)
	}
}

func TestLintCatchesViolations(t *testing.T) {
	cases := map[string]string{
		"no samples":        "# TYPE pado_x counter\n",
		"undeclared family": "pado_y_total 1\n",
		"dup TYPE":          "# TYPE pado_x counter\n# TYPE pado_x counter\npado_x_total 1\n",
		"counter suffix":    "# TYPE pado_x counter\npado_x 1\n",
		"bad value":         "# TYPE pado_x gauge\npado_x zebra\n",
		"missing inf": "# TYPE pado_h histogram\n" +
			`pado_h_bucket{le="10"} 1` + "\npado_h_sum 5\npado_h_count 1\n",
		"inf vs count": "# TYPE pado_h histogram\n" +
			`pado_h_bucket{le="+Inf"} 2` + "\npado_h_sum 5\npado_h_count 3\n",
		"non-cumulative": "# TYPE pado_h histogram\n" +
			`pado_h_bucket{le="10"} 5` + "\n" + `pado_h_bucket{le="20"} 3` + "\n" +
			`pado_h_bucket{le="+Inf"} 5` + "\npado_h_sum 5\npado_h_count 5\n",
		"bad escape": "# TYPE pado_x gauge\n" + `pado_x{l="a\tb"} 1` + "\n",
	}
	for name, page := range cases {
		if err := LintPrometheus(strings.NewReader(page)); err == nil {
			t.Errorf("%s: lint accepted invalid page:\n%s", name, page)
		}
	}
	valid := "# TYPE pado_x gauge\npado_x 1\npado_x{job=\"2\"} 4\n"
	if err := LintPrometheus(strings.NewReader(valid)); err != nil {
		t.Errorf("lint rejected valid page: %v", err)
	}
}

func TestPromNameSanitizes(t *testing.T) {
	if got := PromName("obs.task_launched"); got != "pado_obs_task_launched" {
		t.Errorf("PromName = %q", got)
	}
	if got := PromName("rpc_retries_push"); got != "pado_rpc_retries_push" {
		t.Errorf("PromName = %q", got)
	}
}
