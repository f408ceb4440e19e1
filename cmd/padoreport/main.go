// Command padoreport renders and diffs analyzer reports (the
// .report.json files written by padorun -report and padobench
// -reportdir; see internal/obs/analyze).
//
//	padoreport run.report.json                 # render one report
//	padoreport BENCH_seed.json fresh.json      # diff: fresh vs. baseline
//	padoreport -json base.json cur.json        # machine-readable diff
//
// With two arguments the exit status reports the benchmark trajectory:
// 0 when the current run's JCT is within -max-jct-regress percent of
// the baseline (default: warn-only, always 0), 1 when the gate trips.
// CI diffs fresh runs against the committed BENCH_*.json baselines.
package main

import (
	"flag"
	"fmt"
	"os"

	"pado/internal/obs/analyze"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit JSON instead of text (report render or diff)")
	maxRegress := flag.Float64("max-jct-regress", 0,
		"fail (exit 1) when the current JCT regresses more than this percent over the baseline; 0 = warn only")
	flag.Parse()

	switch flag.NArg() {
	case 1:
		rep, err := analyze.Load(flag.Arg(0))
		if err != nil {
			fatalf("%v", err)
		}
		if *jsonOut {
			if err := rep.WriteJSON(os.Stdout); err != nil {
				fatalf("%v", err)
			}
			return
		}
		if err := rep.WriteText(os.Stdout); err != nil {
			fatalf("%v", err)
		}

	case 2:
		base, err := analyze.Load(flag.Arg(0))
		if err != nil {
			fatalf("%v", err)
		}
		cur, err := analyze.Load(flag.Arg(1))
		if err != nil {
			fatalf("%v", err)
		}
		if base.Engine != cur.Engine || base.Workload != cur.Workload || base.Rate != cur.Rate {
			fmt.Fprintf(os.Stderr, "warning: comparing different cells: %s/%s/%s vs %s/%s/%s\n",
				base.Engine, base.Workload, base.Rate, cur.Engine, cur.Workload, cur.Rate)
		}
		d := analyze.DiffReports(base, cur, flag.Arg(0), flag.Arg(1))
		if *jsonOut {
			if err := writeDiffJSON(d); err != nil {
				fatalf("%v", err)
			}
		} else if err := d.WriteText(os.Stdout); err != nil {
			fatalf("%v", err)
		}
		if *maxRegress > 0 && d.JCTDeltaPct > *maxRegress {
			fmt.Fprintf(os.Stderr, "FAIL: jct regressed %.1f%% (> %.1f%% allowed)\n",
				d.JCTDeltaPct, *maxRegress)
			os.Exit(1)
		}

	default:
		fmt.Fprintln(os.Stderr, "usage: padoreport [-json] report.json            render one report")
		fmt.Fprintln(os.Stderr, "       padoreport [flags] base.json cur.json     diff two reports")
		flag.PrintDefaults()
		os.Exit(2)
	}
}

func writeDiffJSON(d *analyze.Diff) error {
	b, err := analyze.MarshalDiff(d)
	if err != nil {
		return err
	}
	_, err = os.Stdout.Write(b)
	return err
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
