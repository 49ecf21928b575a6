package engine

import (
	"sync"
	"testing"

	"gisnav/internal/geom"
	"gisnav/internal/grid"
	"gisnav/internal/synth"
)

// TestConcurrentPoolAndPlanCacheStress hammers the striped buffer pools and
// the plan cache from many goroutines at once: repeated spatial selections
// (pooled ranges + vectors + grid states), indexed thematic filters (cached
// range kernels), predicate filters (cached compare kernels), and periodic
// plan-cache invalidations racing the readers. Run under -race in CI; the
// assertions here are correctness (row counts stay stable across
// iterations) and pool accounting (no drift once every goroutine returned
// its buffers).
func TestConcurrentPoolAndPlanCacheStress(t *testing.T) {
	pc, _ := buildCloud(t, 0.05)
	pc.EnsureImprints()
	if _, err := pc.EnsureColumnImprint(ColZ); err != nil {
		t.Fatal(err)
	}

	var region grid.Region = grid.GeometryRegion{G: geom.NewEnvelope(120, 80, 740, 690).ToPolygon()}
	spatial := pc.SelectRegionRows(region)
	wantSpatial := len(spatial)
	RecycleRows(spatial)
	thematic, err := pc.FilterRangeIndexed(nil, ColZ, 0, 15, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantThematic := len(thematic)
	RecycleRows(thematic)
	preds := []ColumnPred{{Column: ColClassification, Op: CmpEQ, Value: float64(synth.ClassGround)}}
	predRows, err := pc.FilterRows(nil, preds, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantPred := len(predRows)
	RecycleRows(predRows)

	const goroutines = 16
	iters := 200
	if testing.Short() {
		iters = 40
	}

	rowDrift := SelectionPoolStats().Outstanding
	rangeDrift := RangePoolStats().Outstanding

	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				switch (g + i) % 4 {
				case 0:
					rows := pc.SelectRegionRows(region)
					if len(rows) != wantSpatial {
						errs <- "spatial count drifted"
					}
					RecycleRows(rows)
				case 1:
					rows, err := pc.FilterRangeIndexed(nil, ColZ, 0, 15, nil)
					if err != nil || len(rows) != wantThematic {
						errs <- "thematic count drifted"
					}
					RecycleRows(rows)
				case 2:
					rows, err := pc.FilterRows(nil, preds, nil)
					if err != nil || len(rows) != wantPred {
						errs <- "predicate count drifted"
					}
					RecycleRows(rows)
				default:
					// Invalidation racing the query paths: imprints and
					// kernels rebuild on the next query; results must not
					// change (the backing arrays are untouched).
					if i%8 == 0 {
						pc.InvalidateIndexes()
					}
					sel := pc.SelectRegion(region)
					if len(sel.Rows) != wantSpatial {
						errs <- "post-invalidate spatial count drifted"
					}
					sel.Release()
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}

	if d := SelectionPoolStats().Outstanding - rowDrift; d != 0 {
		t.Fatalf("selection pool drifted by %d vectors", d)
	}
	if d := RangePoolStats().Outstanding - rangeDrift; d != 0 {
		t.Fatalf("range pool drifted by %d buffers", d)
	}
}
