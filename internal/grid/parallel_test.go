package grid

import (
	"testing"

	"gisnav/internal/colstore"
	"gisnav/internal/geom"
)

func TestRefineParallelMatchesSerial(t *testing.T) {
	xs, ys := randomCloud(60_000, geom.NewEnvelope(0, 0, 2000, 2000), 31)
	poly := geom.Polygon{Shell: geom.Ring{Points: []geom.Point{
		{X: 200, Y: 300}, {X: 1500, Y: 250}, {X: 1800, Y: 1400}, {X: 700, Y: 1800},
	}}}
	region := GeometryRegion{G: poly}
	cand := colstore.FullRange(len(xs))
	serial, sst := Refine(xs, ys, cand, region, Options{})
	for _, deg := range []int{0, 1, 2, 3, 8, 16} {
		par, pst := RefineParallelInto(xs, ys, cand, region, Options{}, deg, nil)
		if !equalInts(serial, par) {
			t.Fatalf("deg=%d: parallel %d rows, serial %d rows", deg, len(par), len(serial))
		}
		if pst.Matches != sst.Matches {
			t.Fatalf("deg=%d: stats matches %d vs %d", deg, pst.Matches, sst.Matches)
		}
	}
}

func TestRefineParallelBufferRegion(t *testing.T) {
	xs, ys := randomCloud(50_000, geom.NewEnvelope(0, 0, 1000, 1000), 32)
	road := geom.LineString{Points: []geom.Point{{X: 0, Y: 500}, {X: 1000, Y: 520}}}
	region := BufferRegion{G: road, D: 60}
	cand := colstore.FullRange(len(xs))
	serial, _ := Refine(xs, ys, cand, region, Options{})
	par, _ := RefineParallelInto(xs, ys, cand, region, Options{}, 4, nil)
	if !equalInts(serial, par) {
		t.Fatalf("parallel buffer refine differs: %d vs %d", len(par), len(serial))
	}
}

func TestRefineParallelSparseCandidates(t *testing.T) {
	xs, ys := randomCloud(30_000, geom.NewEnvelope(0, 0, 1000, 1000), 33)
	region := GeometryRegion{G: geom.NewEnvelope(100, 100, 800, 800).ToPolygon()}
	// Fragmented candidate list exercising the range splitter.
	var cand []colstore.Range
	for start := 0; start < len(xs); start += 700 {
		end := start + 350
		if end > len(xs) {
			end = len(xs)
		}
		cand = append(cand, colstore.Range{Start: start, End: end})
	}
	serial, _ := Refine(xs, ys, cand, region, Options{})
	par, _ := RefineParallelInto(xs, ys, cand, region, Options{}, 5, nil)
	if !equalInts(serial, par) {
		t.Fatalf("sparse candidates: parallel %d vs serial %d", len(par), len(serial))
	}
}

func TestSplitRanges(t *testing.T) {
	cand := []colstore.Range{{Start: 0, End: 100}, {Start: 200, End: 250}, {Start: 300, End: 450}}
	_, _, parts := SplitRangesInto(cand, 3, nil, nil, nil)
	if len(parts) < 2 {
		t.Fatalf("expected multiple partitions, got %d", len(parts))
	}
	// Partitions cover exactly the input rows, in order.
	var flat []colstore.Range
	for _, p := range parts {
		flat = append(flat, p...)
	}
	if colstore.RangesLen(flat) != colstore.RangesLen(cand) {
		t.Fatalf("split covers %d rows, want %d", colstore.RangesLen(flat), colstore.RangesLen(cand))
	}
	prev := -1
	for _, r := range flat {
		if r.Start < prev {
			t.Fatal("split broke ordering")
		}
		prev = r.End
	}
	// Degenerate inputs: n <= 1 is cand itself as one partition; an
	// empty list has no rows to split.
	if _, _, got := SplitRangesInto(cand, 1, nil, nil, nil); len(got) != 1 || &got[0][0] != &cand[0] {
		t.Fatal("n=1 should be cand itself as one partition")
	}
	if _, _, got := SplitRangesInto(nil, 4, nil, nil, nil); colstore.RangesLen(flatten(got)) != 0 {
		t.Fatalf("empty split = %v", got)
	}
}

func flatten(parts [][]colstore.Range) []colstore.Range {
	var flat []colstore.Range
	for _, p := range parts {
		flat = append(flat, p...)
	}
	return flat
}

// TestRefineParallelSmallAndLarge pins a small input (below any fan-out)
// and a large one at several degrees to the serial refinement.
func TestRefineParallelSmallAndLarge(t *testing.T) {
	xsSmall, ysSmall := randomCloud(1000, geom.NewEnvelope(0, 0, 100, 100), 34)
	regionS := GeometryRegion{G: geom.NewEnvelope(10, 10, 90, 90).ToPolygon()}
	a, _ := RefineParallelInto(xsSmall, ysSmall, colstore.FullRange(1000), regionS, Options{}, 1, nil)
	b, _ := Refine(xsSmall, ysSmall, colstore.FullRange(1000), regionS, Options{})
	if !equalInts(a, b) {
		t.Fatal("small input differs from serial")
	}

	xsBig, ysBig := randomCloud(200_000, geom.NewEnvelope(0, 0, 2000, 2000), 35)
	regionB := GeometryRegion{G: geom.NewEnvelope(100, 100, 1500, 1500).ToPolygon()}
	d, _ := Refine(xsBig, ysBig, colstore.FullRange(200_000), regionB, Options{})
	for _, deg := range []int{1, 2, 3} {
		c, _ := RefineParallelInto(xsBig, ysBig, colstore.FullRange(200_000), regionB, Options{}, deg, nil)
		if !equalInts(c, d) {
			t.Fatalf("large input at degree %d differs from serial", deg)
		}
	}
}
