package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The two CI smokes of padorun in one: a run under a fault schedule holds
// its invariants, and the exported trace shows the tasks, the pushes and
// the eviction the schedule injected (padorun's job is shorter than any
// container lifetime, so no -rate evicts on its own).
func TestRunChaosTraceSmoke(t *testing.T) {
	tracePath := filepath.Join(t.TempDir(), "trace.json")
	var stdout bytes.Buffer
	err := run([]string{"-rate", "none", "-chaos", "../../examples/chaos/midpush-evict.json",
		"-trace", tracePath}, &stdout)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, stdout.String())
	}
	if !strings.Contains(stdout.String(), "all invariants held") {
		t.Errorf("no clean invariant verdict in:\n%s", stdout.String())
	}
	raw, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		TraceEvents []struct {
			Name string `json:"name"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &parsed); err != nil {
		t.Fatalf("invalid trace JSON: %v", err)
	}
	names := make(map[string]bool)
	for _, ev := range parsed.TraceEvents {
		names[ev.Name] = true
	}
	for _, want := range []string{"task", "push", "container_evicted"} {
		if !names[want] {
			t.Errorf("trace has no %q events", want)
		}
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-engine", "flink"},
		{"-delta", "0.1"},
		{"-incremental", "-engine", "spark"},
		{"-chaos", "no-such-plan.json"},
		{"-heartbeat", "100ms", "-dead-after", "50ms"},
	} {
		if err := run(args, &bytes.Buffer{}); err == nil {
			t.Errorf("run(%v) succeeded", args)
		}
	}
}
