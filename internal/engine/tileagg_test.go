package engine

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"gisnav/internal/geom"
	"gisnav/internal/las"
	"gisnav/internal/sfc"
)

// tileTestPoints draws n points over [0, 1000]² whose value columns carry
// the fold edge cases: z mixes NaN, ±Inf and ±0 into ordinary values, and
// gps_time draws from a palette of NaN, ±0, +Inf and ordinary values.
func tileTestPoints(n int) []las.Point {
	rng := rand.New(rand.NewSource(71))
	zPalette := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0}
	gpsPalette := []float64{math.NaN(), math.Copysign(0, -1), 0, -12.5, 3.25, 1e9, math.Inf(1)}
	pts := make([]las.Point, n)
	for i := range pts {
		z := rng.Float64()*200 - 50
		if rng.Intn(11) == 0 {
			z = zPalette[rng.Intn(len(zPalette))]
		}
		pts[i] = las.Point{
			X: rng.Float64() * 1000, Y: rng.Float64() * 1000, Z: z,
			Classification: uint8(rng.Intn(9)),
			GPSTime:        gpsPalette[rng.Intn(len(gpsPalette))],
		}
	}
	return pts
}

// naiveTileFold is the row-at-a-time reference of the tile scatter: each
// row's composite (tile, class) slot, a count, strict min/max from ±Inf
// seeds and an ascending row-order sum.
func naiveTileFold(pc *PointCloud, tiler sfc.Grid, specs []GroupedAggSpec) (cnt []float64, banks [][]float64) {
	nslots := (1 << (2 * tiler.Order)) * tileDom
	cnt = make([]float64, nslots)
	banks = make([][]float64, len(specs))
	for j, s := range specs {
		if s.Fn != AggCount {
			banks[j] = make([]float64, nslots)
			seedBank(banks[j], s.Fn)
		}
	}
	xs, ys, keys := pc.Column(ColX), pc.Column(ColY), pc.Column(ColClassification)
	for r := 0; r < pc.Len(); r++ {
		cx, cy := tiler.Cell(xs.Value(r), ys.Value(r))
		slot := (int(cy)<<tiler.Order|int(cx))*tileDom + int(keys.Value(r))
		cnt[slot]++
		for j, s := range specs {
			if s.Fn == AggCount {
				continue
			}
			v := pc.Column(s.Column).Value(r)
			switch s.Fn {
			case AggMin:
				if v < banks[j][slot] {
					banks[j][slot] = v
				}
			case AggMax:
				if v > banks[j][slot] {
					banks[j][slot] = v
				}
			case AggSum:
				banks[j][slot] += v
			}
		}
	}
	return cnt, banks
}

// sameTileBanks asserts bit-identical banks.
func sameTileBanks(t *testing.T, label string, cnt, wantCnt []float64, banks, wantBanks [][]float64) {
	t.Helper()
	for s := range wantCnt {
		if cnt[s] != wantCnt[s] {
			t.Fatalf("%s: count[%d] = %v, naive %v", label, s, cnt[s], wantCnt[s])
		}
	}
	for j := range wantBanks {
		for s := range wantBanks[j] {
			if math.Float64bits(banks[j][s]) != math.Float64bits(wantBanks[j][s]) {
				t.Fatalf("%s: bank %d slot %d = %v, naive %v", label, j, s, banks[j][s], wantBanks[j][s])
			}
		}
	}
}

// staleBanks returns tile banks pre-filled with junk, as pooled buffers
// arrive.
func staleBanks(nslots int, specs []GroupedAggSpec) ([]float64, [][]float64) {
	cnt := make([]float64, nslots)
	banks := make([][]float64, len(specs))
	for j, s := range specs {
		if s.Fn != AggCount {
			banks[j] = make([]float64, nslots)
		}
	}
	for i := range cnt {
		cnt[i] = 7
		for _, b := range banks {
			if b != nil {
				b[i] = -3
			}
		}
	}
	return cnt, banks
}

// TestTileGroupedMatchesNaive pins the tile scatter to the naive per-tile
// fold bit for bit at degrees 1, 2, 3 and 4 over value columns with NaN,
// ±Inf and -0, and the append path from a mid-table row to the full
// build. Sum shapes run at degree 1 whatever the cap.
func TestTileGroupedMatchesNaive(t *testing.T) {
	pts := tileTestPoints(morselCloudRows)
	pc := NewPointCloud()
	pc.AppendLAS(pts)
	tiler := sfc.Grid{Extent: geom.NewEnvelope(0, 0, 1000, 1000), Order: 3}
	nslots := (1 << (2 * tiler.Order)) * tileDom
	exact := []GroupedAggSpec{
		{Fn: AggCount},
		{Fn: AggMin, Column: ColZ},
		{Fn: AggMax, Column: ColZ},
		{Fn: AggMin, Column: ColGPSTime},
		{Fn: AggMax, Column: ColGPSTime},
	}
	withSum := []GroupedAggSpec{{Fn: AggCount}, {Fn: AggSum, Column: ColZ}, {Fn: AggMax, Column: ColZ}}
	for _, specs := range [][]GroupedAggSpec{exact, withSum} {
		wantCnt, wantBanks := naiveTileFold(pc, tiler, specs)
		for deg := 1; deg <= 4; deg++ {
			run := parRun(deg)
			cnt, banks := staleBanks(nslots, specs)
			ex := &Explain{}
			if err := pc.TileGroupedAggregateRun(run, tiler, ColClassification, specs, cnt, banks, ex); err != nil {
				t.Fatal(err)
			}
			wantDeg := deg
			if !specsMergeExact(specs) {
				wantDeg = 1
			}
			if d := ex.Steps[0].Detail; !strings.HasSuffix(d, fmt.Sprintf("[par %d]", wantDeg)) {
				t.Fatalf("deg %d: tile step %q, want degree %d", deg, d, wantDeg)
			}
			sameTileBanks(t, fmt.Sprintf("build deg %d", deg), cnt, wantCnt, banks, wantBanks)
			if run.Live() != 0 {
				t.Fatalf("deg %d: run still owns %d buffers", deg, run.Live())
			}
		}

		from := len(pts) / 5
		for deg := 1; deg <= 4; deg++ {
			part := NewPointCloud()
			part.AppendLAS(pts[:from])
			run := parRun(deg)
			cnt, banks := staleBanks(nslots, specs)
			if err := part.TileGroupedAggregateRun(run, tiler, ColClassification, specs, cnt, banks, nil); err != nil {
				t.Fatal(err)
			}
			part.AppendLAS(pts[from:])
			if err := part.TileGroupedAppendRun(run, tiler, ColClassification, specs, from, cnt, banks); err != nil {
				t.Fatal(err)
			}
			sameTileBanks(t, fmt.Sprintf("append deg %d", deg), cnt, wantCnt, banks, wantBanks)
		}
	}
}
