package analyze

import (
	"io"
	"path/filepath"
	"testing"
)

// TestCommittedBaselinesLoad loads every committed bench/BENCH_*seed.json
// (BENCH_seed.json and the scale, incr and multijob ones), the baselines
// CI's padoreport gates diff fresh runs against, and diffs
// each against itself. A change to Report that stops a baseline loading,
// or a Diff that is not zero on equal inputs, breaks those gates; it fails
// here first. Keys the current Report no longer has (such as a baseline's
// "policy") are ignored by decoding.
func TestCommittedBaselinesLoad(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "..", "bench", "BENCH_*seed.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no committed bench/BENCH_*seed.json baselines found")
	}
	for _, path := range paths {
		t.Run(filepath.Base(path), func(t *testing.T) {
			r, err := Load(path)
			if err != nil {
				t.Fatal(err)
			}
			if r.JCTNS <= 0 || len(r.Stages) == 0 {
				t.Errorf("baseline is empty: jct=%d stages=%d", r.JCTNS, len(r.Stages))
			}
			d := DiffReports(r, r, path, path)
			if d.JCTDeltaNS != 0 || d.JCTDeltaPct != 0 {
				t.Errorf("self-diff jct delta %d ns (%+.1f%%)", d.JCTDeltaNS, d.JCTDeltaPct)
			}
			for _, c := range d.Classes {
				if c.DeltaNS != 0 {
					t.Errorf("self-diff class %s delta %d ns", c.Class, c.DeltaNS)
				}
			}
			for _, s := range d.Stages {
				if s.DeltaP95NS != 0 {
					t.Errorf("self-diff stage %d p95 delta %d ns", s.ID, s.DeltaP95NS)
				}
			}
			if err := d.WriteText(io.Discard); err != nil {
				t.Error(err)
			}
		})
	}
}
