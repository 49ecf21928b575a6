package engine

import (
	"testing"
)

func TestFilterRangeIndexedMatchesScan(t *testing.T) {
	pc, _ := buildCloud(t, 0.05)
	cases := []struct {
		col    string
		lo, hi float64
	}{
		{ColZ, 0, 5},
		{ColZ, -10, 0},
		{ColIntensity, 800, 1100},
		{ColClassification, 6, 6},
		{ColGPSTime, 0, 1e12},
		{ColZ, 1e6, 2e6}, // empty result
	}
	for _, c := range cases {
		ex := &Explain{}
		indexed, err := pc.FilterRangeIndexed(nil, c.col, c.lo, c.hi, ex)
		if err != nil {
			t.Fatalf("%s: %v", c.col, err)
		}
		scanned, err := pc.FilterRangeScan(c.col, c.lo, c.hi, ex)
		if err != nil {
			t.Fatal(err)
		}
		if len(indexed) != len(scanned) {
			t.Fatalf("%s [%g,%g]: indexed %d rows, scan %d rows",
				c.col, c.lo, c.hi, len(indexed), len(scanned))
		}
		for i := range indexed {
			if indexed[i] != scanned[i] {
				t.Fatalf("%s: row %d differs", c.col, i)
			}
		}
	}
}

func TestColumnImprintCachedAndInvalidated(t *testing.T) {
	pc, _ := buildCloud(t, 0.02)
	im1, err := pc.EnsureColumnImprint(ColZ)
	if err != nil {
		t.Fatal(err)
	}
	im2, err := pc.EnsureColumnImprint(ColZ)
	if err != nil {
		t.Fatal(err)
	}
	if im1 != im2 {
		t.Fatal("imprint should be cached")
	}
	pc.InvalidateIndexes()
	im3, err := pc.EnsureColumnImprint(ColZ)
	if err != nil {
		t.Fatal(err)
	}
	if im3 == im1 {
		t.Fatal("invalidate should drop cached imprints")
	}
}

func TestColumnImprintUnknownColumn(t *testing.T) {
	pc, _ := buildCloud(t, 0.01)
	if _, err := pc.EnsureColumnImprint("bogus"); err == nil {
		t.Fatal("unknown column should error")
	}
	ex := &Explain{}
	if _, err := pc.FilterRangeIndexed(nil, "bogus", 0, 1, ex); err == nil {
		t.Fatal("unknown column should error")
	}
	if _, err := pc.FilterRangeScan("bogus", 0, 1, ex); err == nil {
		t.Fatal("unknown column should error")
	}
}

func TestFilterRangeIndexedPrunes(t *testing.T) {
	pc, _ := buildCloud(t, 0.1)
	ex := &Explain{}
	// A narrow GPS-time window: monotone column, so imprints should prune
	// aggressively.
	col := pc.Column(ColGPSTime)
	lo, hi, _ := col.MinMax()
	window := lo + (hi-lo)*0.01
	if _, err := pc.FilterRangeIndexed(nil, ColGPSTime, lo, window, ex); err != nil {
		t.Fatal(err)
	}
	var candidates int
	for _, s := range ex.Steps {
		if s.Op == "imprints.filter" {
			candidates = s.OutRows
		}
	}
	if candidates == 0 || candidates > pc.Len()/2 {
		t.Fatalf("imprint passed %d of %d rows — no pruning on a monotone column",
			candidates, pc.Len())
	}
}
