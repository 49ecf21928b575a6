package engine

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"gisnav/internal/cancel"
	"gisnav/internal/geom"
	"gisnav/internal/sfc"
)

// morselCloudRows is sized so morselDegree yields up to 4 partitions
// (rows / morselMinRows = 4) — large enough that every parallel arm
// actually fans out, small enough to build per test.
const morselCloudRows = 4 << 16

// parRun returns a Run forcing the given fan-out cap.
func parRun(deg int) *Run {
	run := new(Run)
	run.SetMaxParallel(deg)
	return run
}

// TestMorselFilterMatchesSerial pins FilterRowsRun's block pass to the
// naive row-at-a-time filter chain over random predicate chains —
// including predicates over the NaN-bearing z column — at degrees 1, 2, 3
// and 5 (degrees past the partition bound clamp; excess over the
// resident set queues).
func TestMorselFilterMatchesSerial(t *testing.T) {
	pc := groupTestCloud(t, morselCloudRows)
	rng := rand.New(rand.NewSource(8))
	ops := []CmpOp{CmpEQ, CmpNE, CmpLT, CmpLE, CmpGT, CmpGE, CmpBetween}
	cols := []string{ColZ, ColIntensity, ColClassification, ColGPSTime}
	for trial := 0; trial < 40; trial++ {
		var preds []ColumnPred
		for np := 1 + rng.Intn(2); np > 0; np-- {
			p := ColumnPred{
				Column: cols[rng.Intn(len(cols))],
				Op:     ops[rng.Intn(len(ops))],
				Value:  rng.Float64()*300 - 60,
			}
			p.Value2 = p.Value + rng.Float64()*100
			preds = append(preds, p)
		}
		want := naiveFilterAll(pc.Column(preds[0].Column), preds[0])
		for _, p := range preds[1:] {
			want = naiveFilterSel(pc.Column(p.Column), want, p)
		}
		for _, deg := range []int{1, 2, 3, 5} {
			run := parRun(deg)
			got, err := pc.FilterRowsRun(run, nil, preds, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !equalRows(got, want) {
				t.Fatalf("trial %d deg %d preds %v: %d rows, naive %d", trial, deg, preds, len(got), len(want))
			}
			run.RecycleRows(got)
			if run.Live() != 0 {
				t.Fatalf("run still owns %d buffers after recycle", run.Live())
			}
		}
	}
}

// TestMorselFilterBlocksMatchesSerial drives the range-kernel pass over
// imprint candidates directly against the naive full-column scan.
func TestMorselFilterBlocksMatchesSerial(t *testing.T) {
	pc := groupTestCloud(t, morselCloudRows)
	if _, err := pc.EnsureColumnImprint(ColZ); err != nil {
		t.Fatal(err)
	}
	im := pc.columnImprintIfBuilt(ColZ)
	k := pc.compileRangeCached(pc.Column(ColZ), ColZ)
	for _, bounds := range [][2]float64{{0, 10}, {-60, 160}, {40, 41}, {-1e9, 1e9}} {
		a := k.Bind(bounds[0], bounds[1])
		cand := im.CandidateRangesInto(bounds[0], bounds[1], getRangeBuf(0))
		want := naiveFilterAll(pc.Column(ColZ), ColumnPred{Column: ColZ, Op: CmpBetween, Value: bounds[0], Value2: bounds[1]})
		for _, deg := range []int{1, 2, 3, 5} {
			got, err := filterBlocks(k, a, cand, deg, getRowBuf(0))
			if err != nil {
				t.Fatal(err)
			}
			if !equalRows(got, want) {
				t.Fatalf("bounds %v deg %d: %d rows, naive %d", bounds, deg, len(got), len(want))
			}
			RecycleRows(got)
		}
		RecycleRanges(cand)
	}
}

// TestMorselAggregateMatchesSerial pins AggregateRun to the row-loop
// aggregate bit-for-bit at degrees 1, 2, 3 and 5 — NaN values and
// all-rows vs selection paths included; sum/avg run at degree 1 whatever
// the cap.
func TestMorselAggregateMatchesSerial(t *testing.T) {
	pc := groupTestCloud(t, morselCloudRows)
	rng := rand.New(rand.NewSource(17))
	sel := randomSelection(rng, pc.Len(), 0.8)
	for _, col := range []string{ColZ, ColIntensity, ColGPSTime} {
		for _, rows := range [][]int{nil, sel} {
			n := len(rows)
			if rows == nil {
				n = pc.Len()
			}
			for _, fn := range []AggFunc{AggMin, AggMax, AggSum, AggAvg, AggCount} {
				want, ok := naiveAggregate(pc.Column(col), rows, rows == nil, fn, n)
				if fn == AggCount {
					want, ok = float64(n), true
				}
				if !ok {
					t.Fatalf("%s(%s): no reference value", fn, col)
				}
				for _, deg := range []int{1, 2, 3, 5} {
					got, err := pc.AggregateRun(parRun(deg), rows, fn, col, nil)
					if err != nil {
						t.Fatal(err)
					}
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%s(%s) deg %d over %d rows = %x, row loop %x",
							fn, col, deg, n, math.Float64bits(got), math.Float64bits(want))
					}
				}
			}
		}
	}
}

// sameGrouped asserts a grouped result is bit-identical to the
// row-at-a-time reference (refGrouped).
func sameGrouped(t *testing.T, label string, got *GroupedResult, wantKeys []float64, wantCols [][]float64) {
	t.Helper()
	if len(got.Keys) != len(wantKeys) {
		t.Fatalf("%s: %d groups, reference %d", label, len(got.Keys), len(wantKeys))
	}
	for i := range wantKeys {
		if math.Float64bits(got.Keys[i]) != math.Float64bits(wantKeys[i]) {
			t.Fatalf("%s: key[%d] = %x, reference %x", label, i, math.Float64bits(got.Keys[i]), math.Float64bits(wantKeys[i]))
		}
	}
	for j := range wantCols {
		for i := range wantCols[j] {
			if math.Float64bits(got.Cols[j][i]) != math.Float64bits(wantCols[j][i]) {
				t.Fatalf("%s: col %d group %d = %x, reference %x",
					label, j, i, math.Float64bits(got.Cols[j][i]), math.Float64bits(wantCols[j][i]))
			}
		}
	}
}

// TestMorselGroupedMatchesSerial pins the dense (u8, u16) and hash (f64
// keys with NaN/±0/±Inf) grouped strategies to the row-at-a-time
// reference bit-for-bit at degrees 1, 2, 3 and 5, over all-rows and
// selection inputs. Plans containing sum or avg run at degree 1 whatever
// the cap and must match too.
func TestMorselGroupedMatchesSerial(t *testing.T) {
	pc := groupTestCloud(t, morselCloudRows)
	rng := rand.New(rand.NewSource(23))
	sel := randomSelection(rng, pc.Len(), 0.85)
	exact := []GroupedAggSpec{
		{Fn: AggCount},
		{Fn: AggMin, Column: ColZ},
		{Fn: AggMax, Column: ColGPSTime},
		{Fn: AggMax, Column: ColZ},
	}
	withSum := []GroupedAggSpec{
		{Fn: AggSum, Column: ColZ},
		{Fn: AggCount},
		{Fn: AggAvg, Column: ColIntensity},
	}
	strategy := map[string]string{ColClassification: GroupDense, ColIntensity: GroupDense, ColGPSTime: GroupHash}
	var got GroupedResult
	for _, key := range []string{ColClassification, ColIntensity, ColGPSTime} {
		for _, rows := range [][]int{nil, sel} {
			for _, specs := range [][]GroupedAggSpec{exact, withSum} {
				wantKeys, wantCols := refGrouped(pc, rows, key, specs)
				for _, deg := range []int{1, 2, 3, 5} {
					run := parRun(deg)
					if err := pc.GroupedAggregateRun(run, rows, key, specs, &got, nil); err != nil {
						t.Fatal(err)
					}
					if run.Live() != 0 {
						t.Fatalf("grouped run still owns %d buffers", run.Live())
					}
					if got.Strategy != strategy[key] {
						t.Fatalf("key %s: strategy %s, want %s", key, got.Strategy, strategy[key])
					}
					sameGrouped(t, key, &got, wantKeys, wantCols)
				}
			}
		}
	}
}

// TestWideSelectivitySkipsCandidates pins the satellite fix: a predicate
// matching most of the table must produce the same rows as the narrow
// path and as a plain scan, and the wide threshold itself must hold.
func TestWideSelectivitySkipsCandidates(t *testing.T) {
	pc := groupTestCloud(t, morselCloudRows)
	if !wideSelectivity(1, 2) || wideSelectivity(0, 2) || wideSelectivity(0, 0) {
		t.Fatal("wideSelectivity threshold is off")
	}
	for _, bounds := range [][2]float64{{-60, 160}, {0, 10}} {
		indexed, err := pc.FilterRangeIndexed(nil, ColZ, bounds[0], bounds[1], nil)
		if err != nil {
			t.Fatal(err)
		}
		scanned, err := pc.FilterRangeScan(ColZ, bounds[0], bounds[1], nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(indexed) != len(scanned) {
			t.Fatalf("bounds %v: indexed %d rows, scan %d", bounds, len(indexed), len(scanned))
		}
		for i := range scanned {
			if indexed[i] != scanned[i] {
				t.Fatalf("bounds %v: row[%d] = %d, scan %d", bounds, i, indexed[i], scanned[i])
			}
		}
		RecycleRows(indexed)
		RecycleRows(scanned)
	}
}

// TestMorselCancelledMidPass proves a token firing during a parallel pass
// surfaces as ErrCancelled with zero pool drift: workers bail at their
// next block boundary and the driver discards every partial.
func TestMorselCancelledMidPass(t *testing.T) {
	pc := groupTestCloud(t, morselCloudRows)
	done := make(chan struct{})
	close(done)
	run := new(Run)
	run.Bind(done)
	run.SetMaxParallel(4)
	rowsBefore := SelectionPoolStats().Outstanding
	f64Before := F64PoolStats().Outstanding

	if _, err := pc.FilterRowsRun(run, nil, []ColumnPred{{Column: ColZ, Op: CmpGT, Value: 0}}, nil); err != cancel.ErrCancelled {
		t.Fatalf("filter err = %v, want ErrCancelled", err)
	}
	run.Drain()
	var res GroupedResult
	for _, key := range []string{ColClassification, ColGPSTime} {
		err := pc.GroupedAggregateRun(run, nil, key, []GroupedAggSpec{{Fn: AggCount}, {Fn: AggMin, Column: ColZ}}, &res, nil)
		if err != cancel.ErrCancelled {
			t.Fatalf("grouped key %s err = %v, want ErrCancelled", key, err)
		}
		run.Drain()
	}
	if _, err := pc.AggregateRun(run, nil, AggMin, ColZ, nil); err != cancel.ErrCancelled {
		t.Fatalf("aggregate err = %v, want ErrCancelled", err)
	}
	run.Drain()

	if d := SelectionPoolStats().Outstanding - rowsBefore; d != 0 {
		t.Fatalf("cancelled parallel passes drifted selection pool by %d", d)
	}
	if d := F64PoolStats().Outstanding - f64Before; d != 0 {
		t.Fatalf("cancelled parallel passes drifted f64 pool by %d", d)
	}
}

// TestMorselConcurrentParallelQueries is the engine-level -race stress:
// many goroutines run parallel filters, aggregates and grouped passes at
// mixed degrees over one table, against serially-computed references.
func TestMorselConcurrentParallelQueries(t *testing.T) {
	pc := groupTestCloud(t, morselCloudRows)
	preds := []ColumnPred{{Column: ColZ, Op: CmpBetween, Value: 0, Value2: 80}}
	wantRows, err := pc.FilterRows(nil, preds, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantMin, err := pc.Aggregate(nil, AggMin, ColGPSTime, nil)
	if err != nil {
		t.Fatal(err)
	}
	var wantGrouped GroupedResult
	specs := []GroupedAggSpec{{Fn: AggCount}, {Fn: AggMax, Column: ColZ}}
	if err := pc.GroupedAggregate(nil, ColClassification, specs, &wantGrouped, nil); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			run := parRun(2 + g%3)
			var res GroupedResult
			for i := 0; i < 12; i++ {
				rows, err := pc.FilterRowsRun(run, nil, preds, nil)
				if err != nil {
					errs <- err.Error()
					return
				}
				if len(rows) != len(wantRows) {
					errs <- "filter row count diverged under concurrency"
				}
				run.RecycleRows(rows)
				lo, err := pc.AggregateRun(run, nil, AggMin, ColGPSTime, nil)
				if err != nil {
					errs <- err.Error()
					return
				}
				if math.Float64bits(lo) != math.Float64bits(wantMin) {
					errs <- "parallel min diverged under concurrency"
				}
				if err := pc.GroupedAggregateRun(run, nil, ColClassification, specs, &res, nil); err != nil {
					errs <- err.Error()
					return
				}
				if len(res.Keys) != len(wantGrouped.Keys) {
					errs <- "grouped key count diverged under concurrency"
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	RecycleRows(wantRows)
}

// TestMorselSteadyStateZeroAllocs pins the warm passes to zero
// allocations per query at degree 1 and degree 4: pooled pass
// scaffolding, pooled per-worker scratch, run-tracked slabs, reused
// result records. Degree 1 is the serial traffic, hash grouping
// included.
func TestMorselSteadyStateZeroAllocs(t *testing.T) {
	pc := groupTestCloud(t, morselCloudRows)
	preds := []ColumnPred{{Column: ColZ, Op: CmpBetween, Value: 0, Value2: 80}}
	tiler := sfc.Grid{Extent: geom.NewEnvelope(0, 0, 1000, 1000), Order: 2}
	tileSpecs := []GroupedAggSpec{{Fn: AggCount}, {Fn: AggMin, Column: ColZ}, {Fn: AggMax, Column: ColGPSTime}}
	nslots := (1 << (2 * tiler.Order)) * tileDom
	cnt := make([]float64, nslots)
	banks := [][]float64{nil, make([]float64, nslots), make([]float64, nslots)}
	for _, deg := range []int{1, 4} {
		run := parRun(deg)
		var got int
		allocs := testing.AllocsPerRun(50, func() {
			rows, err := pc.FilterRowsRun(run, nil, preds, nil)
			if err != nil {
				t.Fatal(err)
			}
			got = len(rows)
			run.RecycleRows(rows)
		})
		if got == 0 {
			t.Fatal("filter matched no rows; the measurement is vacuous")
		}
		if allocs != 0 {
			t.Fatalf("deg %d: steady-state FilterRowsRun allocates %.1f objects/op, want 0", deg, allocs)
		}

		allocs = testing.AllocsPerRun(50, func() {
			if _, err := pc.AggregateRun(run, nil, AggMax, ColZ, nil); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("deg %d: steady-state AggregateRun allocates %.1f objects/op, want 0", deg, allocs)
		}

		var res GroupedResult
		for _, key := range []string{ColClassification, ColGPSTime} {
			specs := []GroupedAggSpec{{Fn: AggCount}, {Fn: AggMin, Column: ColZ}, {Fn: AggMax, Column: ColZ}}
			allocs = testing.AllocsPerRun(50, func() {
				if err := pc.GroupedAggregateRun(run, nil, key, specs, &res, nil); err != nil {
					t.Fatal(err)
				}
			})
			if len(res.Keys) == 0 {
				t.Fatal("grouped pass emitted no groups; the measurement is vacuous")
			}
			if allocs != 0 {
				t.Fatalf("deg %d: steady-state grouped (%s key) allocates %.1f objects/op, want 0", deg, key, allocs)
			}
		}

		allocs = testing.AllocsPerRun(20, func() {
			if err := pc.TileGroupedAggregateRun(run, tiler, ColClassification, tileSpecs, cnt, banks, nil); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("deg %d: steady-state tile scatter allocates %.1f objects/op, want 0", deg, allocs)
		}
		if run.Live() != 0 {
			t.Fatalf("deg %d: run still owns %d buffers", deg, run.Live())
		}
	}
}

// TestMorselDegreeHeuristic pins the degree rule: explicit caps are
// honoured, small inputs stay serial, and a cap of 0 or 1 (or no run) is
// serial.
func TestMorselDegreeHeuristic(t *testing.T) {
	if d := morselDegree(parRun(8), 4*morselMinRows); d != 4 {
		t.Fatalf("degree(cap 8, 4 partitions of rows) = %d, want 4", d)
	}
	if d := morselDegree(parRun(3), 16*morselMinRows); d != 3 {
		t.Fatalf("degree(cap 3, large) = %d, want 3", d)
	}
	if d := morselDegree(parRun(8), 2*morselMinRows-1); d != 1 {
		t.Fatalf("degree just under two partitions = %d, want 1", d)
	}
	if d := morselDegree(parRun(1), 64*morselMinRows); d != 1 {
		t.Fatalf("degree(cap 1) = %d, want 1", d)
	}
	if d := morselDegree(parRun(0), 64*morselMinRows); d != 1 {
		t.Fatalf("degree(cap 0) = %d, want 1", d)
	}
	if d := morselDegree(nil, 64*morselMinRows); d != 1 {
		t.Fatalf("degree(no run) = %d, want 1", d)
	}
}

// TestMorselExplainRecordsDegree checks the EXPLAIN plumbing: parallel
// operators tag their step detail with the effective degree.
func TestMorselExplainRecordsDegree(t *testing.T) {
	pc := groupTestCloud(t, morselCloudRows)
	run := parRun(4)
	ex := &Explain{}
	rows, err := pc.FilterRowsRun(run, nil, []ColumnPred{{Column: ColZ, Op: CmpGT, Value: 0}}, ex)
	if err != nil {
		t.Fatal(err)
	}
	run.RecycleRows(rows)
	found := false
	for _, s := range ex.Steps {
		if s.Op == opFilterColumn {
			found = true
			if want := "z > 0 [par 4]"; s.Detail != want {
				t.Fatalf("filter detail = %q, want %q", s.Detail, want)
			}
		}
	}
	if !found {
		t.Fatal("no filter step in trace")
	}
}
