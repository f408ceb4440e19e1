package harness

import (
	"fmt"
	"strings"

	"pado/internal/trace"
)

// Row is one measured cell of a figure.
type Row struct {
	Outcome Outcome
	Err     error
}

// Table collects the rows of one regenerated figure.
type Table struct {
	Title string
	Rows  []Row
}

// String renders the table.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", t.Title)
	for _, r := range t.Rows {
		if r.Err != nil {
			fmt.Fprintf(&b, "  ERROR: %s: %v\n", r.Outcome.Params.cellName(), r.Err)
			continue
		}
		fmt.Fprintf(&b, "  %s\n", r.Outcome)
	}
	return b.String()
}

// Get returns the outcome for an engine (and optional workload/rate
// filters); ok is false when absent or failed.
func (t *Table) Get(match func(Params) bool) (Outcome, bool) {
	for _, r := range t.Rows {
		if r.Err == nil && match(r.Outcome.Params) {
			return r.Outcome, true
		}
	}
	return Outcome{}, false
}

// Err returns the first failed row's error, labelled with its cell, or
// nil. A row that timed out is a measured point, not a failure.
func (t *Table) Err() error {
	for _, r := range t.Rows {
		if r.Err != nil {
			return fmt.Errorf("%s: %w", r.Outcome.Params.cellName(), r.Err)
		}
	}
	return nil
}

// runRow runs one cell of a figure. A failed row keeps the cell's params,
// so its error can name the cell.
func runRow(p Params) Row {
	out, err := Run(p)
	if err != nil {
		out.Params = p.withDefaults()
	}
	return Row{Outcome: out, Err: err}
}

// AllRates are the eviction rates of Figures 5-7.
var AllRates = []trace.Rate{trace.RateNone, trace.RateLow, trace.RateMedium, trace.RateHigh}

// AllEngines are the engines of Figures 5-7.
var AllEngines = []Engine{EngineSpark, EngineSparkCheckpoint, EnginePado}

// EvictionSweep regenerates one of Figures 5-7: JCT and relaunched-task
// ratio for every engine across eviction rates, for one workload, on 40
// transient + 5 reserved containers.
func EvictionSweep(w Workload, base Params) *Table {
	t := &Table{Title: fmt.Sprintf("%s: JCT and relaunched tasks vs eviction rate (%d transient + %d reserved)",
		w, defaultInt(base.Transient, 40), defaultInt(base.Reserved, 5))}
	for _, rate := range AllRates {
		for _, eng := range AllEngines {
			p := base
			p.Engine = eng
			p.Workload = w
			p.Rate = rate
			t.Rows = append(t.Rows, runRow(p))
		}
	}
	return t
}

// Figure5 regenerates the ALS eviction-rate sweep.
func Figure5(base Params) *Table { return EvictionSweep(WorkloadALS, base) }

// Figure6 regenerates the MLR eviction-rate sweep.
func Figure6(base Params) *Table { return EvictionSweep(WorkloadMLR, base) }

// Figure7 regenerates the MR eviction-rate sweep.
func Figure7(base Params) *Table { return EvictionSweep(WorkloadMR, base) }

// Figure8 regenerates the reserved-container sweep: JCT of
// Spark-checkpoint and Pado on every workload with 3-7 reserved
// containers under the high eviction rate.
func Figure8(base Params) *Table {
	t := &Table{Title: "JCT vs number of reserved containers (40 transient, high eviction rate)"}
	for _, w := range []Workload{WorkloadALS, WorkloadMLR, WorkloadMR} {
		for _, reserved := range []int{3, 4, 5, 6, 7} {
			for _, eng := range []Engine{EngineSparkCheckpoint, EnginePado} {
				p := base
				p.Engine = eng
				p.Workload = w
				p.Rate = trace.RateHigh
				p.Reserved = reserved
				t.Rows = append(t.Rows, runRow(p))
			}
		}
	}
	return t
}

// Figure9 regenerates the scalability sweep: Pado's JCT on every
// workload at a fixed 8:1 transient:reserved ratio (27, 45, 63 total
// containers) under the high eviction rate. The workload is scaled up
// (1.5x the default volume) so the smallest cluster is resource-bound and
// the benefit of additional containers is visible, as in the paper's
// full-size runs.
func Figure9(base Params) *Table {
	t := &Table{Title: "Pado scalability at fixed 8:1 ratio (high eviction rate)"}
	shapes := []struct{ tr, rs int }{{24, 3}, {40, 5}, {56, 7}}
	for _, w := range []Workload{WorkloadALS, WorkloadMLR, WorkloadMR} {
		for _, sh := range shapes {
			p := base
			p.Engine = EnginePado
			p.Workload = w
			p.Rate = trace.RateHigh
			p.Transient, p.Reserved = sh.tr, sh.rs
			if p.Size == 0 {
				p.Size = 1
			}
			p.Size *= 1.5
			t.Rows = append(t.Rows, runRow(p))
		}
	}
	return t
}

func defaultInt(v, d int) int {
	if v == 0 {
		return d
	}
	return v
}
