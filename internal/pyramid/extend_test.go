package pyramid

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"gisnav/internal/engine"
	"gisnav/internal/geom"
	"gisnav/internal/grid"
	"gisnav/internal/las"
)

// appendBatch draws n points for an append: inside ext (with a share
// exactly on its edges), except that outside > 0 of them land past
// ext.MaxX. z and gps_time carry NaN, ±Inf and -0 like testCloud.
func appendBatch(rng *rand.Rand, ext geom.Envelope, n, outside int) []las.Point {
	palette := []float64{math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0, -12.5, 3.25, 1e9}
	pts := make([]las.Point, n)
	for i := range pts {
		x := ext.MinX + rng.Float64()*ext.Width()
		y := ext.MinY + rng.Float64()*ext.Height()
		switch rng.Intn(50) {
		case 0:
			x = ext.MaxX
		case 1:
			y = ext.MinY
		}
		z := rng.Float64()*200 - 50
		if rng.Intn(29) == 0 {
			z = math.NaN()
		}
		pts[i] = las.Point{
			X: x, Y: y, Z: z,
			Intensity:      uint16(rng.Intn(1000)),
			Classification: uint8(rng.Intn(11)),
			GPSTime:        palette[rng.Intn(len(palette))],
		}
	}
	for i := 0; i < outside; i++ {
		pts[rng.Intn(n)].X = ext.MaxX + 1 + rng.Float64()*20
	}
	return pts
}

// samePyramid requires two pyramids to hold bit-identical state: extent,
// tiling, every level's count and value banks, row totals and data
// bounding boxes, and the base postings.
func samePyramid(t *testing.T, label string, got, want *Pyramid) {
	t.Helper()
	if got.n != want.n || got.base != want.base || got.ext != want.ext || len(got.specs) != len(want.specs) {
		t.Fatalf("%s: shape n=%d base=%d ext=%v, fresh n=%d base=%d ext=%v",
			label, got.n, got.base, got.ext, want.n, want.base, want.ext)
	}
	bits := func(name string, o int, a, b []float64) {
		t.Helper()
		if len(a) != len(b) {
			t.Fatalf("%s: level %d %s has %d slots, fresh %d", label, o, name, len(a), len(b))
		}
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				t.Fatalf("%s: level %d %s[%d] = %v, fresh %v", label, o, name, i, a[i], b[i])
			}
		}
	}
	for o := range want.levels {
		g, w := &got.levels[o], &want.levels[o]
		bits("cnt", o, g.cnt, w.cnt)
		for j := range w.banks {
			bits(want.specs[j].Fn.String()+"("+want.specs[j].Column+")", o, g.banks[j], w.banks[j])
		}
		bits("tot", o, g.tot, w.tot)
		bits("bminx", o, g.bminx, w.bminx)
		bits("bminy", o, g.bminy, w.bminy)
		bits("bmaxx", o, g.bmaxx, w.bmaxx)
		bits("bmaxy", o, g.bmaxy, w.bmaxy)
	}
	for i := range want.offs {
		if got.offs[i] != want.offs[i] {
			t.Fatalf("%s: offs[%d] = %d, fresh %d", label, i, got.offs[i], want.offs[i])
		}
	}
	for i := range want.rows {
		if got.rows[i] != want.rows[i] {
			t.Fatalf("%s: rows[%d] = %d, fresh %d", label, i, got.rows[i], want.rows[i])
		}
	}
}

// freshBuild builds a pyramid over pc's current rows outside the cache.
func freshBuild(t *testing.T, pc *engine.PointCloud, specs []engine.GroupedAggSpec) *Pyramid {
	t.Helper()
	run := new(engine.Run)
	defer run.Drain()
	p := newPyramid(pc, pc.Epoch(), engine.ColClassification, specs)
	if p == nil {
		t.Fatal("fresh build declined")
	}
	if err := p.build(run, nil); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestPyramidExtendEqualsFreshBuild is the equivalence property of the
// append path: over random append sequences — NaN/±Inf/-0 values, rows
// on the extent's edges, batches with rows outside the extent (which must
// fall back to a build) and a crossing of the 65,536-row base-order
// threshold (also a build) — the pyramid For returns after each append
// is bit-identical to a fresh build at the same epoch, banks, totals,
// bounding boxes and postings alike, and its viewport answers equal the
// exact serial arm. Sum banks ride along to pin the refold order.
func TestPyramidExtendEqualsFreshBuild(t *testing.T) {
	specs := append(testSpecs(), engine.GroupedAggSpec{Fn: engine.AggSum, Column: engine.ColZ})
	querySpecs := testSpecs() // count/min/max: the merge-exact set
	sig := sigFor(engine.ColClassification, specs)
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pc := testCloud(60_000, seed)
		run := new(engine.Run)
		p, err := For(run, pc, engine.ColClassification, specs, sig, nil)
		if err != nil || p == nil {
			t.Fatalf("seed %d: initial build: %v", seed, err)
		}
		p.Release()
		crossed := false
		for step := 0; step < 10; step++ {
			before := Snapshot()
			ext := pc.Extent()
			n := 1 + rng.Intn(1500)
			outside := 0
			if step%4 == 3 {
				outside = 1 + rng.Intn(3)
			}
			if step == 6 {
				n = 65_536 - pc.Len() + rng.Intn(200) // crosses base order 2 → 3
			}
			wantBase := baseOrderFor(pc.Len() + n)
			fallback := outside > 0 || wantBase != p.base
			pc.AppendLAS(appendBatch(rng, ext, n, outside))

			ex := &engine.Explain{}
			p, err = For(run, pc, engine.ColClassification, specs, sig, ex)
			if err != nil || p == nil {
				t.Fatalf("seed %d step %d: For: %v", seed, step, err)
			}
			after := Snapshot()
			if fallback {
				crossed = crossed || wantBase != baseOrderFor(60_000)
				if after.Builds != before.Builds+1 || after.Extends != before.Extends {
					t.Fatalf("seed %d step %d: rows outside the tiling extended instead of rebuilding", seed, step)
				}
			} else {
				if after.Extends != before.Extends+1 || after.Builds != before.Builds {
					t.Fatalf("seed %d step %d: in-extent append rebuilt (extends %d→%d)", seed, step, before.Extends, after.Extends)
				}
				if len(ex.Steps) != 1 || ex.Steps[0].Op != "tile.agg" || ex.Steps[0].InRows != n {
					t.Fatalf("seed %d step %d: extension trace %+v", seed, step, ex.Steps)
				}
			}
			fresh := freshBuild(t, pc, specs)
			samePyramid(t, "extended", p, fresh)
			fresh.Release()

			for q := 0; q < 6; q++ {
				x, y := ext.MinX+rng.Float64()*ext.Width(), ext.MinY+rng.Float64()*ext.Height()
				env := geom.NewEnvelope(x, y, x+rng.Float64()*ext.Width(), y+rng.Float64()*ext.Height())
				region := grid.GeometryRegion{G: env.ToPolygon()}
				var res engine.GroupedResult
				if _, ok, err := p.QueryRegionRun(run, region, querySpecs, &res); err != nil || !ok {
					t.Fatalf("seed %d step %d: query ok=%v err=%v", seed, step, ok, err)
				}
				sameGrouped(t, "extended query", &res, exactGrouped(t, pc, region, querySpecs))
			}
			p.Release()
		}
		if !crossed {
			t.Fatalf("seed %d: the base-order threshold was never crossed", seed)
		}
		run.Drain()
		dropEntry(pc, sig)
	}
}

// dropEntry drops pc's cache entry for sig, so the bounded cache never
// evicts another test's pyramid under that test's pool accounting.
func dropEntry(pc *engine.PointCloud, sig string) {
	pc.InvalidateIndexes()
	shared.lookup(pc, sig, pc.Epoch())
}

// pyramidBuffers is what one resident pyramid owns per newPyramid: per
// level a count bank, one bank per canonical value spec, a row-total
// array and four bbox arrays (f64 pool); the base offsets and the row
// postings (selection pool).
func pyramidBuffers(p *Pyramid) (f64, rows int64) {
	return int64(len(p.levels) * (1 + len(p.specs) + 5)), 2
}

// TestPyramidExtendPoolsAndPins pins the lifetime rules of the append
// path. With no reader pinned, an extension updates the resident entry in
// place, and across appends and lookups the pools' Outstanding gauges
// hold exactly what the resident pyramid owns, returning to baseline when
// the entry drops. A reader that pinned the pre-append pyramid keeps
// getting the pre-append answer — concurrently with a later query that
// extends a copy (run it under -race).
func TestPyramidExtendPoolsAndPins(t *testing.T) {
	pc := testCloud(70_000, 17)
	specs := testSpecs()
	sig, _ := Shape(pc, engine.ColClassification, specs)
	rowsBase := engine.SelectionPoolStats().Outstanding
	f64Base := engine.F64PoolStats().Outstanding
	rng := rand.New(rand.NewSource(4))
	region := grid.GeometryRegion{G: geom.NewEnvelope(120, 80, 870, 910).ToPolygon()}

	lookup := func() *Pyramid {
		t.Helper()
		run := new(engine.Run)
		defer run.Drain()
		p, err := For(run, pc, engine.ColClassification, specs, sig, nil)
		if err != nil || p == nil {
			t.Fatalf("For: %v", err)
		}
		return p
	}
	owned := func(label string, p *Pyramid) {
		t.Helper()
		f64, rows := pyramidBuffers(p)
		if d := engine.F64PoolStats().Outstanding - f64Base; d != f64 {
			t.Fatalf("%s: f64 pool holds %d buffers, the resident pyramid owns %d", label, d, f64)
		}
		if d := engine.SelectionPoolStats().Outstanding - rowsBase; d != rows {
			t.Fatalf("%s: selection pool holds %d buffers, the resident pyramid owns %d", label, d, rows)
		}
	}
	answer := func(p *Pyramid) *engine.GroupedResult {
		run := new(engine.Run)
		defer run.Drain()
		res := new(engine.GroupedResult)
		if _, ok, err := p.QueryRegionRun(run, region, specs, res); err != nil || !ok {
			t.Errorf("query ok=%v err=%v", ok, err)
		}
		return res
	}

	p := lookup()
	p.Release()
	for k := 0; k < 4; k++ {
		pc.AppendLAS(appendBatch(rng, pc.Extent(), 500+rng.Intn(500), 0))
		q := lookup()
		if q != p {
			t.Fatalf("append %d: an unpinned entry was copied, not updated in place", k)
		}
		owned("in place", q)
		q.Release()
	}

	// Pin, append, then extend while the pin's reader queries: the
	// extension must take the copy path and leave the pinned version alone.
	pinned := lookup()
	want := exactGrouped(t, pc, region, specs)
	pc.AppendLAS(appendBatch(rng, pc.Extent(), 2000, 0))
	var wg sync.WaitGroup
	var during []*engine.GroupedResult
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			during = append(during, answer(pinned))
		}
	}()
	next := lookup()
	wg.Wait()
	for _, res := range during {
		sameGrouped(t, "pinned reader", res, want)
	}
	if next == pinned {
		t.Fatal("a pinned pyramid was updated in place")
	}
	sameGrouped(t, "pinned after extension", answer(pinned), want)
	sameGrouped(t, "copy", answer(next), exactGrouped(t, pc, region, specs))
	pinned.Release()
	owned("copy resident", next)
	next.Release()

	// The full drop releases the cache's reference: back to baseline.
	pc.InvalidateIndexes()
	if got, _, _ := shared.lookup(pc, sig, pc.Epoch()); got != nil {
		t.Fatal("stale pyramid served after InvalidateIndexes")
	}
	if d := engine.F64PoolStats().Outstanding - f64Base; d != 0 {
		t.Fatalf("f64 pool drifted by %d buffers", d)
	}
	if d := engine.SelectionPoolStats().Outstanding - rowsBase; d != 0 {
		t.Fatalf("selection pool drifted by %d buffers", d)
	}
}
