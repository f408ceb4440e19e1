package analyze

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// MarshalDiff renders a diff as indented, newline-terminated JSON.
func MarshalDiff(d *Diff) ([]byte, error) {
	b, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// ClassDelta is one critical-path class compared across two reports.
type ClassDelta struct {
	Class   string `json:"class"`
	BaseNS  int64  `json:"base_ns"`
	CurNS   int64  `json:"cur_ns"`
	DeltaNS int64  `json:"delta_ns"`
	// Frac deltas show where the critical path SHIFTED, independent of
	// absolute slowdown.
	BaseFrac float64 `json:"base_frac"`
	CurFrac  float64 `json:"cur_frac"`
}

// StageDelta compares one stage present in both reports.
type StageDelta struct {
	ID         int   `json:"id"`
	BaseP50NS  int64 `json:"base_p50_ns"`
	CurP50NS   int64 `json:"cur_p50_ns"`
	BaseP95NS  int64 `json:"base_p95_ns"`
	CurP95NS   int64 `json:"cur_p95_ns"`
	DeltaP95NS int64 `json:"delta_p95_ns"`
}

// Diff compares two reports of the same experiment cell, say a run
// before and after a change.
type Diff struct {
	Base string `json:"base"` // label (usually the base report's path)
	Cur  string `json:"cur"`
	// Engine of each side, so comparisons are self-describing.
	BaseEngine string `json:"base_engine,omitempty"`
	CurEngine  string `json:"cur_engine,omitempty"`

	JCTBaseNS   int64   `json:"jct_base_ns"`
	JCTCurNS    int64   `json:"jct_cur_ns"`
	JCTDeltaNS  int64   `json:"jct_delta_ns"`
	JCTDeltaPct float64 `json:"jct_delta_pct"` // positive = current slower

	Classes []ClassDelta `json:"classes"`

	WasteComputeBaseNS int64 `json:"waste_compute_base_ns"`
	WasteComputeCurNS  int64 `json:"waste_compute_cur_ns"`
	BytesLostBase      int64 `json:"bytes_lost_base"`
	BytesLostCur       int64 `json:"bytes_lost_cur"`
	EvictionsBase      int   `json:"evictions_base"`
	EvictionsCur       int   `json:"evictions_cur"`

	StragglersBase int `json:"stragglers_base"`
	StragglersCur  int `json:"stragglers_cur"`

	// Failure-handling plane: detector declarations and retry/backoff
	// waste compared across the two runs (zero when a side's report has
	// no detection section).
	DeclaredDeadBase int   `json:"declared_dead_base,omitempty"`
	DeclaredDeadCur  int   `json:"declared_dead_cur,omitempty"`
	RPCRetriesBase   int64 `json:"rpc_retries_base,omitempty"`
	RPCRetriesCur    int64 `json:"rpc_retries_cur,omitempty"`
	RPCBackoffBaseNS int64 `json:"rpc_backoff_base_ns,omitempty"`
	RPCBackoffCurNS  int64 `json:"rpc_backoff_cur_ns,omitempty"`
	// Max injection→declaration latency on each side (0 = no anchored
	// declarations), so detector tuning regressions show up in diffs.
	DetectMaxBaseNS int64 `json:"detect_max_base_ns,omitempty"`
	DetectMaxCurNS  int64 `json:"detect_max_cur_ns,omitempty"`

	Stages []StageDelta `json:"stages,omitempty"`
}

// DiffReports computes cur relative to base.
func DiffReports(base, cur *Report, baseLabel, curLabel string) *Diff {
	d := &Diff{
		Base:               baseLabel,
		Cur:                curLabel,
		BaseEngine:         base.Engine,
		CurEngine:          cur.Engine,
		JCTBaseNS:          base.JCTNS,
		JCTCurNS:           cur.JCTNS,
		JCTDeltaNS:         cur.JCTNS - base.JCTNS,
		WasteComputeBaseNS: base.Waste.ComputeLostNS + base.Waste.FailureComputeLostNS + base.Waste.RestartComputeLostNS,
		WasteComputeCurNS:  cur.Waste.ComputeLostNS + cur.Waste.FailureComputeLostNS + cur.Waste.RestartComputeLostNS,
		BytesLostBase:      base.Waste.BytesLost,
		BytesLostCur:       cur.Waste.BytesLost,
		EvictionsBase:      base.Waste.EvictionsTotal,
		EvictionsCur:       cur.Waste.EvictionsTotal,
		StragglersBase:     len(base.Stragglers),
		StragglersCur:      len(cur.Stragglers),
	}
	if base.JCTNS > 0 {
		d.JCTDeltaPct = float64(d.JCTDeltaNS) / float64(base.JCTNS) * 100
	}

	detect := func(r *Report) (declared int, retries, backoff, maxLat int64) {
		if r.Detection == nil {
			return
		}
		declared = len(r.Detection.Declared)
		retries = r.Detection.RPCRetries
		backoff = r.Detection.RPCBackoffNS
		for _, decl := range r.Detection.Declared {
			if decl.LatencyNS > maxLat {
				maxLat = decl.LatencyNS
			}
		}
		return
	}
	d.DeclaredDeadBase, d.RPCRetriesBase, d.RPCBackoffBaseNS, d.DetectMaxBaseNS = detect(base)
	d.DeclaredDeadCur, d.RPCRetriesCur, d.RPCBackoffCurNS, d.DetectMaxCurNS = detect(cur)

	fracOf := func(cp CritPath, class string) float64 {
		if cp.TotalNS <= 0 {
			return 0
		}
		return float64(cp.Class(class)) / float64(cp.TotalNS)
	}
	for _, class := range Classes {
		b, c := base.CritPath.Class(class), cur.CritPath.Class(class)
		d.Classes = append(d.Classes, ClassDelta{
			Class:    class,
			BaseNS:   b,
			CurNS:    c,
			DeltaNS:  c - b,
			BaseFrac: fracOf(base.CritPath, class),
			CurFrac:  fracOf(cur.CritPath, class),
		})
	}

	baseStages := make(map[int]StageReport, len(base.Stages))
	for _, s := range base.Stages {
		baseStages[s.ID] = s
	}
	for _, c := range cur.Stages {
		b, ok := baseStages[c.ID]
		if !ok {
			continue
		}
		d.Stages = append(d.Stages, StageDelta{
			ID:         c.ID,
			BaseP50NS:  b.P50NS,
			CurP50NS:   c.P50NS,
			BaseP95NS:  b.P95NS,
			CurP95NS:   c.P95NS,
			DeltaP95NS: c.P95NS - b.P95NS,
		})
	}
	sort.Slice(d.Stages, func(i, j int) bool { return d.Stages[i].ID < d.Stages[j].ID })
	return d
}

// CritShift returns the largest absolute critical-path fraction shift
// across classes, and its class name. A big shift means the job's
// bottleneck moved (e.g. compute-bound → relaunch-bound) even if JCT
// barely changed.
func (d *Diff) CritShift() (string, float64) {
	bestClass, best := "", 0.0
	for _, c := range d.Classes {
		shift := c.CurFrac - c.BaseFrac
		if shift < 0 {
			shift = -shift
		}
		if shift > best {
			bestClass, best = c.Class, shift
		}
	}
	return bestClass, best
}

func signedDur(ns int64) string {
	if ns >= 0 {
		return "+" + dur(ns)
	}
	return "-" + dur(-ns)
}

// WriteText renders the diff for terminals.
func (d *Diff) WriteText(w io.Writer) error {
	p := func(format string, args ...any) error {
		_, err := fmt.Fprintf(w, format, args...)
		return err
	}
	ident := func(engine string) string {
		if engine == "" {
			return ""
		}
		return " [engine=" + engine + "]"
	}
	if err := p("base: %s%s\ncur:  %s%s\n",
		d.Base, ident(d.BaseEngine), d.Cur, ident(d.CurEngine)); err != nil {
		return err
	}
	if err := p("jct: %s -> %s (%s, %+.1f%%)\n",
		dur(d.JCTBaseNS), dur(d.JCTCurNS), signedDur(d.JCTDeltaNS), d.JCTDeltaPct); err != nil {
		return err
	}
	if err := p("critical path by class:\n"); err != nil {
		return err
	}
	for _, c := range d.Classes {
		if err := p("  %-9s %9s -> %9s (%s; share %4.1f%% -> %4.1f%%)\n",
			c.Class, dur(c.BaseNS), dur(c.CurNS), signedDur(c.DeltaNS),
			c.BaseFrac*100, c.CurFrac*100); err != nil {
			return err
		}
	}
	if class, shift := d.CritShift(); shift >= 0.10 {
		if err := p("  bottleneck shift: %s moved %+.1f points\n", class, shift*100); err != nil {
			return err
		}
	}
	if err := p("waste: compute %s -> %s; bytes %s -> %s; evictions %d -> %d\n",
		dur(d.WasteComputeBaseNS), dur(d.WasteComputeCurNS),
		kb(d.BytesLostBase), kb(d.BytesLostCur),
		d.EvictionsBase, d.EvictionsCur); err != nil {
		return err
	}
	if err := p("stragglers: %d -> %d\n", d.StragglersBase, d.StragglersCur); err != nil {
		return err
	}
	if d.DeclaredDeadBase != 0 || d.DeclaredDeadCur != 0 ||
		d.RPCRetriesBase != 0 || d.RPCRetriesCur != 0 {
		if err := p("detection: declared dead %d -> %d (max latency %s -> %s); rpc retries %d -> %d (backoff %s -> %s)\n",
			d.DeclaredDeadBase, d.DeclaredDeadCur,
			dur(d.DetectMaxBaseNS), dur(d.DetectMaxCurNS),
			d.RPCRetriesBase, d.RPCRetriesCur,
			dur(d.RPCBackoffBaseNS), dur(d.RPCBackoffCurNS)); err != nil {
			return err
		}
	}
	for _, s := range d.Stages {
		if s.DeltaP95NS == 0 {
			continue
		}
		if err := p("  stage %d p95 %s -> %s (%s)\n",
			s.ID, dur(s.BaseP95NS), dur(s.CurP95NS), signedDur(s.DeltaP95NS)); err != nil {
			return err
		}
	}
	return nil
}
