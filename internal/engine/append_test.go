package engine

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"gisnav/internal/geom"
	"gisnav/internal/grid"
	"gisnav/internal/las"
)

// imprintStep returns the detail of the query's imprints.build step, or
// "" when the query built nothing.
func imprintStep(t *testing.T, sel Selection) string {
	t.Helper()
	for _, s := range sel.Explain.Steps {
		if s.Op == opImprintsBuild {
			return s.Detail
		}
	}
	return ""
}

// TestAppendExtendsImprints pins the append-only epoch bump: an append
// keeps the coordinate and column imprints, the next query extends them
// over the new rows (EXPLAIN names the extension) and answers exactly;
// AppendOnlySince tells caches built before and after a full drop apart;
// InvalidateIndexes drops everything and the next query builds afresh.
func TestAppendExtendsImprints(t *testing.T) {
	pc, _ := buildCloud(t, 0.03)
	box := geom.NewEnvelope(150, 220, 640, 810)
	if d := imprintStep(t, pc.SelectBox(box)); d != "x+y coordinate imprints" {
		t.Fatalf("first query built %q", d)
	}
	if _, err := pc.EnsureColumnImprint(ColZ); err != nil {
		t.Fatal(err)
	}
	built := pc.Epoch()

	rng := rand.New(rand.NewSource(2))
	for round := 0; round < 3; round++ {
		extra := make([]las.Point, 500+rng.Intn(900))
		for i := range extra {
			extra[i] = las.Point{X: rng.Float64() * 1100, Y: rng.Float64() * 1000, Z: rng.Float64() * 60}
		}
		pc.AppendLAS(extra)
		if !pc.AppendOnlySince(built) {
			t.Fatal("an append reported a full drop")
		}
		if pc.HasImprints() {
			t.Fatal("imprints over a prefix reported current")
		}
		sel := pc.SelectBox(box)
		if d := imprintStep(t, sel); !strings.HasPrefix(d, "extend +") {
			t.Fatalf("round %d: post-append query built %q, want an extension", round, d)
		}
		scan := pc.SelectRegionScan(grid.GeometryRegion{G: box.ToPolygon()})
		if !slices.Equal(sel.Rows, scan.Rows) {
			t.Fatalf("round %d: extended imprints select %d rows, scan %d", round, len(sel.Rows), len(scan.Rows))
		}
		sel.Release()
		scan.Release()

		idx, err := pc.FilterRangeIndexed(nil, ColZ, 20, 35, nil)
		if err != nil {
			t.Fatal(err)
		}
		full, err := pc.FilterRangeScan(ColZ, 20, 35, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(idx, full) {
			t.Fatalf("round %d: extended column imprint selects %d rows, scan %d", round, len(idx), len(full))
		}
		RecycleRows(idx)
		RecycleRows(full)
	}

	pc.InvalidateIndexes()
	if pc.AppendOnlySince(built) {
		t.Fatal("a full drop reported append-only")
	}
	if !pc.AppendOnlySince(pc.Epoch()) {
		t.Fatal("no bump since the current epoch, yet not append-only")
	}
	if d := imprintStep(t, pc.SelectBox(box)); d != "x+y coordinate imprints" {
		t.Fatalf("query after InvalidateIndexes built %q, want a full build", d)
	}
}
