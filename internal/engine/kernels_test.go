package engine

import (
	"math"
	"math/rand"
	"testing"

	"gisnav/internal/colstore"
	"gisnav/internal/geom"
	"gisnav/internal/grid"
)

// naiveFilterSel is the pre-kernel reference arm: per-row operator
// re-dispatch through ColumnPred.Matches over float64-widened values.
// Property tests and benchmarks compare the compiled kernels against it.
func naiveFilterSel(col colstore.Column, rows []int, pred ColumnPred) []int {
	var out []int
	for _, r := range rows {
		if pred.Matches(col.Value(r)) {
			out = append(out, r)
		}
	}
	return out
}

// naiveFilterAll scans the whole column with the reference arm.
func naiveFilterAll(col colstore.Column, pred ColumnPred) []int {
	var out []int
	for i, n := 0, col.Len(); i < n; i++ {
		if pred.Matches(col.Value(i)) {
			out = append(out, i)
		}
	}
	return out
}

// randomTestCloud fills every schema column with pseudo-random values drawn
// from its full native domain, plus adversarial float values (NaN, ±Inf) in
// the float columns.
func randomTestCloud(n int, seed int64) *PointCloud {
	rng := rand.New(rand.NewSource(seed))
	pc := NewPointCloud()
	for _, f := range pc.Schema().Fields {
		col := pc.Column(f.Name)
		for i := 0; i < n; i++ {
			switch f.Type {
			case colstore.F64:
				switch rng.Intn(50) {
				case 0:
					col.AppendValue(math.NaN())
				case 1:
					col.AppendValue(math.Inf(1))
				case 2:
					col.AppendValue(math.Inf(-1))
				default:
					col.AppendValue((rng.Float64() - 0.5) * 2000)
				}
			case colstore.I64:
				col.AppendValue(float64(rng.Int63n(1<<40) - 1<<39))
			case colstore.I32:
				col.AppendValue(float64(rng.Int31()) - float64(1<<30))
			case colstore.U16:
				col.AppendValue(float64(rng.Intn(1 << 16)))
			case colstore.U8:
				col.AppendValue(float64(rng.Intn(1 << 8)))
			default:
				col.AppendValue(float64(rng.Intn(100)))
			}
		}
	}
	return pc
}

// randomPred draws a predicate with adversarial constants: integral,
// non-integral, out-of-range, negative, NaN and ±Inf.
func randomPred(rng *rand.Rand, column string) ColumnPred {
	ops := []CmpOp{CmpEQ, CmpNE, CmpLT, CmpLE, CmpGT, CmpGE, CmpBetween}
	randConst := func() float64 {
		switch rng.Intn(12) {
		case 0:
			return math.NaN()
		case 1:
			return math.Inf(1)
		case 2:
			return math.Inf(-1)
		case 3:
			return float64(rng.Intn(100000)) + 0.5 // non-integral
		case 4:
			return -float64(rng.Intn(1000)) // below unsigned domains
		case 5:
			return 1e18 // above every integer domain
		default:
			if rng.Intn(2) == 0 {
				return float64(rng.Intn(70000)) // integral, often in range
			}
			return (rng.Float64() - 0.5) * 150000
		}
	}
	p := ColumnPred{Column: column, Op: ops[rng.Intn(len(ops))], Value: randConst()}
	if p.Op == CmpBetween {
		p.Value2 = randConst()
	}
	return p
}

func equalRows(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestKernelMatchesNaiveAllTypes is the core property test: for every
// column type and random adversarial predicates, the compiled kernel's
// block and selection paths must be bit-identical to the per-row Matches
// reference.
func TestKernelMatchesNaiveAllTypes(t *testing.T) {
	pc := randomTestCloud(3000, 1)
	rng := rand.New(rand.NewSource(2))
	columns := []string{ColZ, ColIntensity, ColClassification, ColScanAngle, ColWaveOffset, ColGPSTime}
	// A fixed scattered selection vector exercises the gather path.
	var sel []int
	for i := 0; i < pc.Len(); i += 1 + rng.Intn(4) {
		sel = append(sel, i)
	}
	for _, name := range columns {
		col := pc.Column(name)
		for trial := 0; trial < 300; trial++ {
			pred := randomPred(rng, name)
			k := CompileFilter(col, pred)
			wantAll := naiveFilterAll(col, pred)
			gotAll := k.FilterBlock(0, col.Len(), nil)
			if !equalRows(gotAll, wantAll) {
				t.Fatalf("%s %s: block kernel %d rows, naive %d rows", name, pred, len(gotAll), len(wantAll))
			}
			wantSel := naiveFilterSel(col, sel, pred)
			gotSel := k.FilterSel(sel, nil)
			if !equalRows(gotSel, wantSel) {
				t.Fatalf("%s %s: sel kernel %d rows, naive %d rows", name, pred, len(gotSel), len(wantSel))
			}
		}
	}
}

// TestKernelBlockSubranges checks block boundaries: filtering a column in
// arbitrary chunks must concatenate to the full-scan result.
func TestKernelBlockSubranges(t *testing.T) {
	pc := randomTestCloud(1000, 3)
	rng := rand.New(rand.NewSource(4))
	col := pc.Column(ColIntensity)
	for trial := 0; trial < 50; trial++ {
		pred := randomPred(rng, ColIntensity)
		k := CompileFilter(col, pred)
		var chunked []int
		for lo := 0; lo < col.Len(); {
			hi := lo + 1 + rng.Intn(200)
			if hi > col.Len() {
				hi = col.Len()
			}
			chunked = k.FilterBlock(lo, hi, chunked)
			lo = hi
		}
		if want := naiveFilterAll(col, pred); !equalRows(chunked, want) {
			t.Fatalf("%s: chunked blocks disagree with full scan", pred)
		}
	}
}

// TestFilterRangeIndexedMatchesNaive covers the whole indexed path —
// imprint candidates + block kernels — against both the kernel full scan
// and the naive reference, over random ranges on every imprintable type.
func TestFilterRangeIndexedMatchesNaive(t *testing.T) {
	pc := randomTestCloud(4000, 5)
	rng := rand.New(rand.NewSource(6))
	for _, name := range []string{ColZ, ColIntensity, ColClassification, ColScanAngle} {
		col := pc.Column(name)
		for trial := 0; trial < 60; trial++ {
			lo := (rng.Float64() - 0.5) * 150000
			hi := lo + rng.Float64()*80000
			ex := &Explain{}
			indexed, err := pc.FilterRangeIndexed(nil, name, lo, hi, ex)
			if err != nil {
				t.Fatal(err)
			}
			scanned, err := pc.FilterRangeScan(name, lo, hi, ex)
			if err != nil {
				t.Fatal(err)
			}
			naive := naiveFilterAll(col, ColumnPred{Column: name, Op: CmpBetween, Value: lo, Value2: hi})
			if !equalRows(indexed, scanned) || !equalRows(scanned, naive) {
				t.Fatalf("%s in [%g,%g]: indexed %d, scan %d, naive %d rows",
					name, lo, hi, len(indexed), len(scanned), len(naive))
			}
			RecycleRows(indexed)
			RecycleRows(scanned)
		}
	}
}

// TestFilterRangeParallelIdentical runs the indexed range filter at
// degrees 1 through 4 and asserts bit-identical output with the naive
// scan.
func TestFilterRangeParallelIdentical(t *testing.T) {
	pc := randomTestCloud(300_000, 7)
	lo, hi := -20000.0, 20000.0
	want := naiveFilterAll(pc.Column(ColScanAngle), ColumnPred{Column: ColScanAngle, Op: CmpBetween, Value: lo, Value2: hi})
	if len(want) == 0 {
		t.Fatal("test range selected nothing; widen it")
	}
	for deg := 1; deg <= 4; deg++ {
		run := new(Run)
		run.SetMaxParallel(deg)
		got, err := pc.FilterRangeIndexed(run, ColScanAngle, lo, hi, &Explain{})
		if err != nil {
			t.Fatal(err)
		}
		if !equalRows(got, want) {
			t.Fatalf("deg %d: %d rows vs naive %d rows", deg, len(got), len(want))
		}
		run.RecycleRows(got)
		if run.Live() != 0 {
			t.Fatalf("deg %d: run still owns %d buffers", deg, run.Live())
		}
	}
}

// TestFilterRowsDoesNotClobberCallerSlice is the regression test for the
// old `out := rows[:0]` aliasing: the caller's selection vector must be
// untouched after FilterRows.
func TestFilterRowsDoesNotClobberCallerSlice(t *testing.T) {
	pc := randomTestCloud(500, 8)
	mine := make([]int, 0, pc.Len())
	for i := 0; i < pc.Len(); i++ {
		mine = append(mine, i)
	}
	snapshot := append([]int(nil), mine...)
	ex := &Explain{}
	out, err := pc.FilterRows(mine, []ColumnPred{
		{Column: ColClassification, Op: CmpLE, Value: 100},
		{Column: ColIntensity, Op: CmpGT, Value: 30000},
	}, ex)
	if err != nil {
		t.Fatal(err)
	}
	if !equalRows(mine, snapshot) {
		t.Fatal("FilterRows mutated the caller's slice")
	}
	if len(out) > 0 && &out[0] == &mine[0] {
		t.Fatal("FilterRows returned a vector aliasing the caller's backing array")
	}
	// And the result equals the chained naive passes.
	want := naiveFilterSel(pc.Column(ColIntensity),
		naiveFilterSel(pc.Column(ColClassification), snapshot, ColumnPred{Column: ColClassification, Op: CmpLE, Value: 100}),
		ColumnPred{Column: ColIntensity, Op: CmpGT, Value: 30000})
	if !equalRows(out, want) {
		t.Fatalf("filtered %d rows, naive %d", len(out), len(want))
	}
}

// TestFilterRowsMatchesNaiveChains runs random multi-predicate conjunctions
// through FilterRows and the naive reference.
func TestFilterRowsMatchesNaiveChains(t *testing.T) {
	pc := randomTestCloud(2000, 9)
	rng := rand.New(rand.NewSource(10))
	columns := []string{ColZ, ColIntensity, ColClassification, ColScanAngle, ColWaveOffset}
	for trial := 0; trial < 80; trial++ {
		var preds []ColumnPred
		for i := 0; i < 1+rng.Intn(3); i++ {
			preds = append(preds, randomPred(rng, columns[rng.Intn(len(columns))]))
		}
		ex := &Explain{}
		got, err := pc.FilterRows(nil, preds, ex)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]int, pc.Len())
		for i := range want {
			want[i] = i
		}
		for _, p := range preds {
			want = naiveFilterSel(pc.Column(p.Column), want, p)
		}
		if !equalRows(got, want) {
			t.Fatalf("preds %v: kernel %d rows, naive %d rows", preds, len(got), len(want))
		}
		RecycleRows(got)
	}
}

// TestSelectRegionMatchesScan is the spatial property test: the pooled
// imprints+grid pipeline must return exactly the rows of the exhaustive
// no-index SelectRegionScan arm, over random boxes and polygons.
func TestSelectRegionMatchesScan(t *testing.T) {
	pc, _ := buildCloud(t, 0.05)
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 25; trial++ {
		var region grid.Region
		if trial%2 == 0 {
			x, y := rng.Float64()*900, rng.Float64()*900
			w, h := rng.Float64()*300+1, rng.Float64()*300+1
			region = grid.GeometryRegion{G: geom.NewEnvelope(x, y, x+w, y+h).ToPolygon()}
		} else {
			cx, cy := rng.Float64()*1000, rng.Float64()*1000
			r := rng.Float64()*200 + 10
			region = grid.GeometryRegion{G: geom.Polygon{Shell: geom.Ring{Points: []geom.Point{
				{X: cx - r, Y: cy - r}, {X: cx + r, Y: cy - r/2}, {X: cx + r/2, Y: cy + r}, {X: cx - r/2, Y: cy + r/2},
			}}}}
		}
		sel := pc.SelectRegion(region)
		scan := pc.SelectRegionScan(region)
		if !equalRows(sel.Rows, scan.Rows) {
			t.Fatalf("trial %d: indexed %d rows, scan %d rows", trial, len(sel.Rows), len(scan.Rows))
		}
		sel.Release()
	}
}

// TestRecycledVectorsAreReused exercises the pool contract: a released
// vector with sufficient capacity comes back on the next query.
func TestRecycledVectorsAreReused(t *testing.T) {
	pc := randomTestCloud(1000, 12)
	ex := &Explain{}
	rows, err := pc.FilterRangeScan(ColIntensity, 0, 1<<16, ex)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != pc.Len() {
		t.Fatalf("full-range scan kept %d of %d rows", len(rows), pc.Len())
	}
	RecycleRows(rows)
	again, err := pc.FilterRangeScan(ColIntensity, 0, 1<<16, ex)
	if err != nil {
		t.Fatal(err)
	}
	if cap(again) < pc.Len() {
		t.Fatal("second query did not reuse a pooled vector of adequate capacity")
	}
	RecycleRows(again)
}

// TestNormalizeIntPred spot-checks the integer-domain reduction on the
// edge cases the float→int conversion must not get wrong.
func TestNormalizeIntPred(t *testing.T) {
	cases := []struct {
		pred  ColumnPred
		shape intShape
		lo    int64
		hi    int64
	}{
		{ColumnPred{Op: CmpEQ, Value: 6}, shapeEQ, 6, 6},
		{ColumnPred{Op: CmpEQ, Value: 6.5}, shapeNone, 0, 0},
		{ColumnPred{Op: CmpEQ, Value: 300}, shapeNone, 0, 0}, // above u8 max
		{ColumnPred{Op: CmpEQ, Value: -1}, shapeNone, 0, 0},  // below u8 min
		{ColumnPred{Op: CmpNE, Value: 6.5}, shapeAll, 0, 0},  // non-integral <> matches all
		{ColumnPred{Op: CmpNE, Value: 300}, shapeAll, 0, 0},  // out-of-range <> matches all
		{ColumnPred{Op: CmpNE, Value: 6}, shapeNE, 6, 6},
		{ColumnPred{Op: CmpLT, Value: 6.5}, shapeLE, 0, 6},   // v < 6.5 ⇔ v <= 6
		{ColumnPred{Op: CmpLT, Value: 6}, shapeLE, 0, 5},     // v < 6 ⇔ v <= 5
		{ColumnPred{Op: CmpLT, Value: 0}, shapeNone, 0, 0},   // nothing below u8 min
		{ColumnPred{Op: CmpLT, Value: 1000}, shapeAll, 0, 0}, // everything below 1000
		{ColumnPred{Op: CmpGE, Value: 6.5}, shapeGE, 7, 255}, // v >= 6.5 ⇔ v >= 7
		{ColumnPred{Op: CmpGT, Value: 6.5}, shapeGE, 7, 255}, // v > 6.5 ⇔ v >= 7
		{ColumnPred{Op: CmpGT, Value: 6}, shapeGE, 7, 255},   // v > 6 ⇔ v >= 7
		{ColumnPred{Op: CmpGE, Value: math.Inf(-1)}, shapeAll, 0, 0},
		{ColumnPred{Op: CmpLE, Value: math.Inf(1)}, shapeAll, 0, 0},
		{ColumnPred{Op: CmpLE, Value: math.NaN()}, shapeNone, 0, 0},
		{ColumnPred{Op: CmpBetween, Value: 2.5, Value2: 7.5}, shapeRange, 3, 7},
		{ColumnPred{Op: CmpBetween, Value: 7, Value2: 2}, shapeNone, 0, 0},
		{ColumnPred{Op: CmpBetween, Value: -10, Value2: 1000}, shapeAll, 0, 0},
	}
	for _, c := range cases {
		shape, lo, hi := normalizeIntPred(c.pred.Op, c.pred.Value, c.pred.Value2, 0, 255)
		if shape != c.shape {
			t.Errorf("%s over u8: shape %d, want %d", c.pred, shape, c.shape)
			continue
		}
		if shape == shapeRange || shape == shapeEQ || shape == shapeNE || shape == shapeLE || shape == shapeGE {
			if lo != c.lo || hi != c.hi {
				t.Errorf("%s over u8: bounds [%d,%d], want [%d,%d]", c.pred, lo, hi, c.lo, c.hi)
			}
		}
	}
}
