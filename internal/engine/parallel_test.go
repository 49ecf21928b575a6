package engine

import (
	"strings"
	"testing"

	"gisnav/internal/geom"
	"gisnav/internal/grid"
)

// TestParallelSelectionMatchesSerial pins region selection at degrees 1,
// 2, 3 and 5 to the exhaustive per-point scan over box, polygon and
// buffer regions.
func TestParallelSelectionMatchesSerial(t *testing.T) {
	pc, _ := buildCloud(t, 0.2) // enough rows to cross the parallel threshold
	poly := geom.Polygon{Shell: geom.Ring{Points: []geom.Point{
		{X: 100, Y: 200}, {X: 800, Y: 150}, {X: 900, Y: 800}, {X: 300, Y: 950},
	}}}
	road := geom.LineString{Points: []geom.Point{{X: 0, Y: 480}, {X: 1000, Y: 520}}}
	regions := map[string]grid.Region{
		"box":     grid.GeometryRegion{G: geom.NewEnvelope(100, 100, 900, 900).ToPolygon()},
		"polygon": grid.GeometryRegion{G: poly},
		"dwithin": grid.BufferRegion{G: road, D: 50},
		"all":     grid.GeometryRegion{G: geom.NewEnvelope(-1, -1, 1001, 1001).ToPolygon()},
	}
	for name, region := range regions {
		want := pc.SelectRegionScan(region)
		for _, deg := range []int{1, 2, 3, 5} {
			run := new(Run)
			run.SetMaxParallel(deg)
			got := pc.SelectRegionRun(run, region)
			if !equalRows(got.Rows, want.Rows) {
				t.Fatalf("%s deg %d: %d rows, exhaustive scan %d", name, deg, len(got.Rows), len(want.Rows))
			}
		}
	}
}

// TestRefineExplainRecordsDegree pins the grid.refine EXPLAIN step: a
// run capped at 4 over a region with at least 4×morselMinRows candidates
// fans out and says so; a run capped at 1 stays serial and says nothing.
func TestRefineExplainRecordsDegree(t *testing.T) {
	pc := groupTestCloud(t, morselCloudRows)
	region := grid.GeometryRegion{G: geom.NewEnvelope(-1, -1, 1001, 1001).ToPolygon()}
	for _, c := range []struct {
		cap  int
		want string
	}{{4, "[par 4]"}, {1, ""}} {
		run := new(Run)
		run.SetMaxParallel(c.cap)
		sel := pc.SelectRegionRun(run, region)
		var detail string
		for _, s := range sel.Explain.Steps {
			if s.Op == opGridRefine {
				if s.InRows < 4*morselMinRows {
					t.Fatalf("region has %d candidates, want at least %d", s.InRows, 4*morselMinRows)
				}
				detail = s.Detail
			}
		}
		if detail == "" {
			t.Fatal("no grid.refine step in trace")
		}
		if c.want != "" && !strings.HasSuffix(detail, c.want) {
			t.Fatalf("cap %d: refine detail %q, want suffix %q", c.cap, detail, c.want)
		}
		if c.want == "" && strings.Contains(detail, "[par") {
			t.Fatalf("cap %d: refine detail %q reports a fan-out", c.cap, detail)
		}
		if len(sel.Rows) != pc.Len() {
			t.Fatalf("cap %d: %d rows, want every row (%d)", c.cap, len(sel.Rows), pc.Len())
		}
	}
}
