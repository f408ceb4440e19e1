// Command padotop is a terminal monitor for a live pado master, in the
// spirit of top(1): point it at a process serving the introspection
// plane (padorun/padobench with -http) and it polls /state, rendering
// the admitted jobs, admission queue, node fleet, failure detector,
// and breakers in place once per interval.
//
// Usage:
//
//	padotop -addr 127.0.0.1:7777
//	padotop -addr 127.0.0.1:7777 -once        # one plain frame, no ANSI
//	padotop -addr 127.0.0.1:7777 -count 5     # five frames, then exit
//	padotop -addr 127.0.0.1:7777 -lint        # validate /metrics, exit
//
// -lint fetches the Prometheus page and runs the repo's text-format
// linter over it, exiting non-zero on violations — CI's http-smoke
// lane uses it as a scrape-compatibility check without needing
// promtool.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"pado/internal/metrics"
	"pado/internal/runtime"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7777", "introspection plane address (host:port)")
	interval := flag.Duration("interval", time.Second, "refresh interval")
	count := flag.Int("count", 0, "exit after this many frames (0 = run until interrupted)")
	once := flag.Bool("once", false, "print a single frame without clearing the screen and exit")
	lint := flag.Bool("lint", false, "fetch /metrics, lint the Prometheus text format, and exit")
	flag.Parse()

	if *lint {
		os.Exit(lintMetrics(*addr))
	}
	frames := *count
	if *once {
		frames = 1
	}
	client := &http.Client{Timeout: 10 * time.Second}
	for n := 0; frames == 0 || n < frames; n++ {
		if n > 0 {
			time.Sleep(*interval)
		}
		st, err := fetchState(client, *addr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "padotop: %v\n", err)
			os.Exit(1)
		}
		if !*once {
			// Home the cursor and clear below: repaint without flicker.
			fmt.Print("\x1b[H\x1b[2J")
		}
		render(os.Stdout, *addr, st)
	}
}

func lintMetrics(addr string) int {
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		fmt.Fprintf(os.Stderr, "padotop: fetch /metrics: %v\n", err)
		return 1
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		fmt.Fprintf(os.Stderr, "padotop: read /metrics: %v\n", err)
		return 1
	}
	if resp.StatusCode != http.StatusOK {
		fmt.Fprintf(os.Stderr, "padotop: /metrics = %d\n%s", resp.StatusCode, body)
		return 1
	}
	if err := metrics.LintPrometheus(strings.NewReader(string(body))); err != nil {
		fmt.Fprintf(os.Stderr, "padotop: /metrics lint failed:\n%v\n", err)
		return 1
	}
	fmt.Printf("padotop: /metrics OK (%d bytes, valid Prometheus text)\n", len(body))
	return 0
}

func fetchState(client *http.Client, addr string) (*runtime.ManagerState, error) {
	resp, err := client.Get("http://" + addr + "/state")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, fmt.Errorf("/state = %d: %s", resp.StatusCode, strings.TrimSpace(string(body)))
	}
	var st runtime.ManagerState
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, fmt.Errorf("decode /state: %w", err)
	}
	return &st, nil
}

func render(w io.Writer, addr string, st *runtime.ManagerState) {
	fmt.Fprintf(w, "pado @ %s — %s — budget %d/%d reserved slots free",
		addr, st.TakenAt.Format("15:04:05.000"), st.BudgetFree, st.BudgetTotal)
	if st.Broken != "" {
		fmt.Fprintf(w, " — BROKEN: %s", st.Broken)
	}
	fmt.Fprintf(w, "\n\n")

	fmt.Fprintf(w, "JOBS (%d running, %d queued)\n", len(st.Jobs), len(st.Queue))
	fmt.Fprintf(w, "  %3s  %-14s %4s  %7s  %-18s %12s  %9s\n",
		"ID", "NAME", "WT", "STAGES", "TASKS w/r/c/C", "P95 COMPUTE", "RUNNING")
	for _, j := range st.Jobs {
		done := 0
		for _, stg := range j.Stages {
			if stg.Status == "done" {
				done++
			}
		}
		p95 := "-"
		if h, ok := j.Hists["task_compute_ns"]; ok && h.Count > 0 {
			p95 = fmtNanos(h.QuantileInterp(0.95))
		}
		fmt.Fprintf(w, "  %3d  %-14s %4.1f  %3d/%-3d  %-18s %12s  %9s\n",
			j.ID, clip(j.Name, 14), j.Weight, done, len(j.Stages),
			fmt.Sprintf("%d/%d/%d/%d", j.TasksWaiting, j.TasksRunning, j.TasksComputed, j.TasksCommitted),
			p95, fmtNanos(int64(j.RunningFor)))
	}
	for _, q := range st.Queue {
		fmt.Fprintf(w, "  %3d  %-14s queued (position %d, priority %d, demand %d)\n",
			q.ID, clip(q.Name, 14), q.Position, q.Priority, q.Demand)
	}

	// Scheduler efficiency: tasks scanned per scheduling round is the
	// per-event control-plane cost; with the incremental scheduler it
	// tracks actual launches, not job size.
	perRound := 0.0
	if st.Sched.Rounds > 0 {
		perRound = float64(st.Sched.TasksScanned) / float64(st.Sched.Rounds)
	}
	fmt.Fprintf(w, "\nSCHED  rounds=%d scanned=%d (%.2f/round)  slot-index hits=%d  runnable backlog=%d\n",
		st.Sched.Rounds, st.Sched.TasksScanned, perRound,
		st.Sched.SlotIndexHits, st.Sched.RunnableTasks)

	if s := st.Store; s != nil {
		hitRate := 0.0
		if s.Hits+s.Misses > 0 {
			hitRate = 100 * float64(s.Hits) / float64(s.Hits+s.Misses)
		}
		fmt.Fprintf(w, "\nSTORE  %d chunks / %d manifests, %s resident  probes %d hit / %d miss (%.0f%%)  commits=%d dedup=%d  gc %d runs / %d collected\n",
			s.Chunks, s.Manifests, fmtBytes(s.UsedBytes),
			s.Hits, s.Misses, hitRate, s.Commits, s.DedupPuts, s.GCRuns, s.GCCollected)
	}

	byKind := map[string][]runtime.NodeState{}
	for _, n := range st.Nodes {
		byKind[n.Kind] = append(byKind[n.Kind], n)
	}
	kinds := make([]string, 0, len(byKind))
	for k := range byKind {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	fmt.Fprintf(w, "\nNODES (%d)\n", len(st.Nodes))
	for _, k := range kinds {
		ns := byKind[k]
		free, running, suspects := 0, 0, 0
		for _, n := range ns {
			free += n.SlotsFree
			running += n.RunningTasks
			if n.Detector == "suspect" {
				suspects++
			}
		}
		fmt.Fprintf(w, "  %-9s %3d nodes  %3d slots free  %3d tasks running",
			k, len(ns), free, running)
		if suspects > 0 {
			fmt.Fprintf(w, "  [%d SUSPECT]", suspects)
		}
		fmt.Fprintln(w)
	}
	for _, n := range st.Nodes {
		if n.Detector == "suspect" {
			fmt.Fprintf(w, "  suspect: %s (last heartbeat %s ago, reports open: %s)\n",
				n.ID, fmtNanos(int64(n.LastBeatAge)), strings.Join(n.ReportedOpen, ","))
		}
	}

	openers := 0
	for _, b := range st.Breakers {
		if b.State != "closed" {
			openers++
		}
	}
	fmt.Fprintf(w, "\nBREAKERS (%d tracked, %d open)\n", len(st.Breakers), openers)
	for _, b := range st.Breakers {
		if b.State == "closed" {
			continue
		}
		fmt.Fprintf(w, "  %-12s %-9s fails=%d retry-budget=%.2f\n",
			b.Dest, b.State, b.Fails, b.RetryBudget)
	}
}

// fmtBytes renders a byte count compactly.
func fmtBytes(b int64) string {
	switch {
	case b >= 10<<20:
		return fmt.Sprintf("%.1fMiB", float64(b)/(1<<20))
	case b >= 10<<10:
		return fmt.Sprintf("%.1fKiB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%dB", b)
	}
}

// fmtNanos renders a nanosecond count as a compact duration.
func fmtNanos(ns int64) string {
	d := time.Duration(ns)
	switch {
	case d >= time.Minute:
		return d.Truncate(time.Second).String()
	case d >= time.Second:
		return d.Truncate(10 * time.Millisecond).String()
	case d >= time.Millisecond:
		return d.Truncate(10 * time.Microsecond).String()
	}
	return d.String()
}

func clip(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-1] + "…"
}
