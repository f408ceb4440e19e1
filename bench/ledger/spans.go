package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed interval the benchmark records around a call into a
// layer. Spans of one rep (or one micro-probe) share a trace id; Parent is
// the id of the span that caused this one, 0 for a root.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent,omitempty"`
	Trace   int    `json:"trace"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	SelfNS  int64  `json:"self_ns"`
}

// spanLog keeps spans in memory until the run ends. It is used from the
// generator goroutine only. A nil log records nothing, which is how the
// untraced pass runs.
type spanLog struct {
	t0    time.Time
	spans []span
	trace int
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// root opens a new trace and its root span.
func (l *spanLog) root(name string) int {
	if l == nil {
		return 0
	}
	l.trace++
	return l.start(name, 0)
}

// start opens a span under parent in the current trace and returns its id.
func (l *spanLog) start(name string, parent int) int {
	if l == nil {
		return 0
	}
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{ID: id, Parent: parent, Trace: l.trace, Name: name,
		StartNS: int64(time.Since(l.t0))})
	return id
}

func (l *spanLog) end(id int) {
	if l == nil {
		return
	}
	l.spans[id-1].EndNS = int64(time.Since(l.t0))
}

// durationsMS returns the duration of every span called name, in
// milliseconds, in recording order.
func (l *spanLog) durationsMS(name string) []float64 {
	var out []float64
	if l == nil {
		return out
	}
	for _, s := range l.spans {
		if s.Name == name {
			out = append(out, float64(s.EndNS-s.StartNS)/1e6)
		}
	}
	return out
}

// fillSelfTimes sets each span's self time: its duration minus the part of
// its interval that its child spans cover. Overlapping children are counted
// once and a child is clipped to its parent's interval.
func fillSelfTimes(spans []span) {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	for i := range spans {
		s := &spans[i]
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].StartNS < kids[b].StartNS })
		covered, edge := int64(0), s.StartNS
		for _, k := range kids {
			from, to := max(k.StartNS, edge), min(k.EndNS, s.EndNS)
			if to > from {
				covered += to - from
				edge = to
			}
		}
		s.SelfNS = s.EndNS - s.StartNS - covered
	}
}

// write stores the spans, with self times, as JSON.
func (l *spanLog) write(path string) error {
	fillSelfTimes(l.spans)
	b, err := json.Marshal(l.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
