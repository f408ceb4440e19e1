// Command padoreport renders and diffs analyzer reports (the
// .report.json files written by padorun -report and padobench
// -reportdir; see internal/obs/analyze).
//
//	padoreport run.report.json                 # render one report
//	padoreport base.json cur.json              # diff: cur vs. base
//	padoreport -json base.json cur.json        # machine-readable diff
//
// A diff is for reading, not gating: it exits 0 whatever the deltas are.
// The repository's performance gate is the benchmark ledger
// (bench/ledger), whose bounds come from measured run-to-run noise.
package main

import (
	"flag"
	"fmt"
	"os"

	"pado/internal/obs/analyze"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit JSON instead of text (report render or diff)")
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

	default:
		fmt.Fprintln(os.Stderr, "usage: padoreport [-json] report.json            render one report")
		fmt.Fprintln(os.Stderr, "       padoreport [-json] base.json cur.json     diff two reports")
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
