// Tile-grouped pre-aggregation (PR 10): the engine entry points the
// pyramid builds on. TileGroupedAggregateRun scatters the whole table
// into per-(tile, class) banks — a grouped-aggregate pass whose composite
// slot is the row's quantised tile times the 256-class domain — run as a
// morsel pass like the dense grouped strategy: partition 0 scatters
// straight into the caller's banks, partitions 1..deg-1 into bank slabs
// merged in ascending-partition order, which is exact for count/min/max.
// Sum banks run at degree 1: per-tile sums are pinned to the ascending
// row-order fold by the float-determinism invariant, and partition
// merging would reassociate them. GroupedAccumulateRows is the
// query-time counterpart: it folds the same compiled kernels over an
// explicit row list into 256-slot class banks — the boundary-tile
// refinement of a pyramid lookup.
package engine

import (
	"fmt"
	"math"
	"time"

	"gisnav/internal/cancel"
	"gisnav/internal/colstore"
	"gisnav/internal/morsel"
	"gisnav/internal/sfc"
)

// tileDom is the class domain of one tile's bank: the pyramid keys on u8
// columns only (the dense grouped strategy's u8 arm), so every tile owns
// 256 slots regardless of how many classes actually occur.
const tileDom = 256

// validateTileSpecs rejects aggregate shapes the tile banks cannot hold:
// avg derives from sum and count at emit time and is never materialised
// per tile.
func validateTileSpecs(specs []GroupedAggSpec) error {
	for _, s := range specs {
		switch s.Fn {
		case AggCount, AggMin, AggMax, AggSum:
		default:
			return fmt.Errorf("engine: tile aggregation does not materialise %v banks", s.Fn)
		}
	}
	return nil
}

// TileGroupedAggregateRun scatters every row of the table into
// per-(tile, class) pre-aggregate banks. tiler assigns each row exactly
// one tile (Cell clamps, so rows on the extent boundary land in the edge
// tiles); keyCol must be a u8 column. Slot (t, k) of a bank lives at
// index t*256+k with t = cy<<order | cx. cnt receives the group sizes;
// banks[j] receives spec j's fold and may be nil for AggCount specs,
// which are served from cnt. All banks are (re)seeded here: callers pass
// pooled buffers with stale contents.
//
// Parallelism follows the grouped kernels' merge contract: count/min/max
// shapes fan across the morsel worker set at the run's degree, sum shapes
// run at degree 1 so each tile's sum folds rows in ascending row order.
func (pc *PointCloud) TileGroupedAggregateRun(run *Run, tiler sfc.Grid, keyCol string, specs []GroupedAggSpec, cnt []float64, banks [][]float64, ex *Explain) error {
	start := time.Now()
	keys, nslots, err := pc.tileBankShape(tiler, keyCol, specs, cnt, banks)
	if err != nil {
		return err
	}
	deg, err := pc.tileGrouped(run, tiler, keys, specs, cnt, banks, nslots, 0)
	if err != nil {
		return err
	}
	if ex != nil {
		ex.Add(opTileAgg, fmt.Sprintf("order %d, %d aggs [par %d]", tiler.Order, len(specs), deg),
			len(keys), nslots, time.Since(start))
	}
	return nil
}

// TileGroupedAppendRun folds rows [from, Len()) into banks that hold the
// TileGroupedAggregateRun result over the table's first `from` rows — the
// pyramid's append path. Banks are not reseeded: the new rows fold after
// the existing values in the same pass, which is the fold a build over
// all rows performs (count/min/max merge exactly in any order, per-tile
// sums continue their ascending row-order fold at degree 1), so the banks
// come out bit-identical to that build.
func (pc *PointCloud) TileGroupedAppendRun(run *Run, tiler sfc.Grid, keyCol string, specs []GroupedAggSpec, from int, cnt []float64, banks [][]float64) error {
	keys, nslots, err := pc.tileBankShape(tiler, keyCol, specs, cnt, banks)
	if err != nil {
		return err
	}
	_, err = pc.tileGrouped(run, tiler, keys, specs, cnt, banks, nslots, from)
	return err
}

// tileBankShape validates a tile-bank call: the spec shapes, the u8 key
// column (returned), the value columns and the bank sizes for tiler.
func (pc *PointCloud) tileBankShape(tiler sfc.Grid, keyCol string, specs []GroupedAggSpec, cnt []float64, banks [][]float64) ([]uint8, int, error) {
	if err := validateTileSpecs(specs); err != nil {
		return nil, 0, err
	}
	u8, ok := pc.Column(keyCol).(*colstore.U8Column)
	if !ok {
		return nil, 0, fmt.Errorf("engine: tile aggregation requires a u8 key column, got %q", keyCol)
	}
	nslots := (1 << (2 * tiler.Order)) * tileDom
	if len(cnt) < nslots || len(banks) != len(specs) {
		return nil, 0, fmt.Errorf("engine: tile bank shape mismatch: %d slots, %d banks for %d specs",
			len(cnt), len(banks), len(specs))
	}
	for j, s := range specs {
		if s.Fn == AggCount {
			continue
		}
		if pc.Column(s.Column) == nil {
			return nil, 0, fmt.Errorf("engine: unknown column %q", s.Column)
		}
		if len(banks[j]) < nslots {
			return nil, 0, fmt.Errorf("engine: tile bank %d holds %d slots, need %d", j, len(banks[j]), nslots)
		}
	}
	return u8.Values(), nslots, nil
}

// seedBank initialises a fold bank to fn's identity.
func seedBank(bank []float64, fn AggFunc) {
	seed := 0.0
	switch fn {
	case AggMin:
		seed = math.Inf(1)
	case AggMax:
		seed = math.Inf(-1)
	}
	for i := range bank {
		bank[i] = seed
	}
}

// tileSlots quantises rows [start, end) into composite (tile, class)
// slots: slots[i] belongs to global row start+i.
func tileSlots(xs, ys []float64, keys []uint8, tiler sfc.Grid, start, end int, slots []int) {
	order := tiler.Order
	for i := range slots {
		r := start + i
		cx, cy := tiler.Cell(xs[r], ys[r])
		slots[i] = (int(cy)<<order|int(cx))*tileDom + int(keys[r])
	}
}

// tilePass is the pooled scaffolding of one tile scatter over rows
// [from, n). dst holds each partition's destination banks, 1+len(specs)
// per slot laid out [cnt, spec 0, spec 1, ...]: slot 0 aliases the
// caller's banks, slots 1..deg-1 slabs of one run-tracked buffer (the
// dense grouped layout). The per-partition slot vector is pooled and
// recycled on every exit path, panic included.
type tilePass struct {
	pass         morsel.Pass
	xs, ys       []float64
	keys         []uint8
	tiler        sfc.Grid
	pc           *PointCloud
	specs        []GroupedAggSpec
	from, n, deg int
	nslots       int
	seed         bool // seed partition 0's banks (a full build; appends fold on top)
	dst          [][]float64
	errs         slotErrs
	tok          *cancel.Token
}

var tilePasses morsel.Free[tilePass]

// RunPartition quantises and scatters one partition into its banks, with
// a pass checkpoint before each accumulate pass (as in
// groupPassCheckpoint).
func (tp *tilePass) RunPartition(slot int) {
	start, end := span(slot, tp.deg, tp.n-tp.from)
	start, end = start+tp.from, end+tp.from
	slots := getRowBuf(end - start)[:end-start]
	defer rowPool.Put(slots)
	workerPoint(tp.deg)
	dst := tp.dst[slot*(1+len(tp.specs)) : (slot+1)*(1+len(tp.specs))]
	if tp.seed || slot > 0 {
		clear(dst[0][:tp.nslots])
		for j, sp := range tp.specs {
			if sp.Fn != AggCount {
				seedBank(dst[1+j][:tp.nslots], sp.Fn)
			}
		}
	}
	tileSlots(tp.xs, tp.ys, tp.keys, tp.tiler, start, end, slots)
	cnt := dst[0]
	for _, s := range slots {
		cnt[s]++
	}
	for j, sp := range tp.specs {
		if err := groupPassCheckpoint(tp.tok); err != nil {
			tp.errs[slot] = err
			return
		}
		if sp.Fn != AggCount {
			hashAccumCol(tp.pc.Column(sp.Column), nil, true, start, slots, sp.Fn, dst[1+j])
		}
	}
}

// tileGrouped scatters rows [from, len(keys)) into the caller's banks,
// reseeding them first when from is 0, and returns the degree it ran at.
// Partitions 1..deg-1 merge into the caller's banks in ascending order —
// exact for count/min/max (specsMergeExact holds whenever deg > 1), so
// the banks are bit-identical at every degree.
func (pc *PointCloud) tileGrouped(run *Run, tiler sfc.Grid, keys []uint8, specs []GroupedAggSpec, cnt []float64, banks [][]float64, nslots, from int) (int, error) {
	n := len(keys)
	deg := 1
	if specsMergeExact(specs) {
		deg = morselDegree(run, n-from)
	}
	w := 1 + len(specs)
	tp := tilePasses.Get()
	if cap(tp.dst) < deg*w {
		tp.dst = make([][]float64, deg*w)
	}
	tp.dst = tp.dst[:deg*w]
	tp.dst[0] = cnt
	copy(tp.dst[1:w], banks)
	// Partitions 1..deg-1 carve a count bank plus one bank per non-count
	// spec each out of one run-tracked slab buffer.
	var slabs []float64
	if deg > 1 {
		nacc := 0
		for _, s := range specs {
			if s.Fn != AggCount {
				nacc++
			}
		}
		size := (deg - 1) * (1 + nacc) * nslots
		slabs = run.trackF64(getF64Buf(size))[:size]
	}
	next := 0
	for i := w; i < deg*w; i++ {
		tp.dst[i] = nil
		if i%w == 0 || specs[i%w-1].Fn != AggCount {
			tp.dst[i] = slabs[next : next+nslots]
			next += nslots
		}
	}
	tp.xs, tp.ys, tp.keys = pc.xs.Values(), pc.ys.Values(), keys
	tp.tiler, tp.pc, tp.specs = tiler, pc, specs
	tp.from, tp.n, tp.deg, tp.nslots = from, n, deg, nslots
	tp.seed = from == 0
	tp.errs = tp.errs.reset(deg)
	tp.tok = run.Token()
	p := tp.pass.Run(deg, tp)
	err := tp.errs.first()
	if p == nil && err == nil {
		if err = mergePoint(deg); err == nil {
			tp.merge()
		}
	}
	tp.xs, tp.ys, tp.keys = nil, nil, nil
	tp.pc, tp.specs, tp.tok = nil, nil, nil
	clear(tp.dst)
	tilePasses.Put(tp)
	run.recycleF64(slabs)
	if p != nil {
		panic(p)
	}
	return deg, err
}

// merge folds the banks of partitions 1..deg-1 into partition 0's (the
// caller's) in ascending-partition order: counts sum, min/max fold
// strictly.
func (tp *tilePass) merge() {
	w := 1 + len(tp.specs)
	for slot := 1; slot < tp.deg; slot++ {
		d := tp.dst[slot*w : (slot+1)*w]
		for s, c := range d[0] {
			tp.dst[0][s] += c
		}
		for j, sp := range tp.specs {
			b := tp.dst[1+j]
			switch sp.Fn {
			case AggMin:
				for s, v := range d[1+j] {
					if v < b[s] {
						b[s] = v
					}
				}
			case AggMax:
				for s, v := range d[1+j] {
					if v > b[s] {
						b[s] = v
					}
				}
			}
		}
	}
}

// GroupedAccumulateRows folds specs over an explicit row list into
// 256-slot class-indexed banks, running the same compiled dense kernels
// as the exact grouped arm — the pyramid's boundary-tile refinement entry
// point. bank is one flat slab laid out [count | spec 0 | spec 1 | ...]:
// 256 count slots followed by one 256-slot segment per spec (count specs'
// segments are unused — the shared count slots serve them). The flat
// layout keeps the warm query path free of per-call slice-header
// allocation. All slots accumulate ON TOP of their existing contents (the
// caller seeds them once per fold sequence: zero for count/sum, ±Inf for
// min/max — or folds interior pre-aggregates in first). Rows are folded
// in slice order, so a deterministic rows order yields deterministic
// sums.
func (pc *PointCloud) GroupedAccumulateRows(rows []int, keyCol string, specs []GroupedAggSpec, bank []float64) error {
	if err := validateTileSpecs(specs); err != nil {
		return err
	}
	u8, ok := pc.Column(keyCol).(*colstore.U8Column)
	if !ok {
		return fmt.Errorf("engine: tile aggregation requires a u8 key column, got %q", keyCol)
	}
	if len(bank) < (1+len(specs))*tileDom {
		return fmt.Errorf("engine: class bank slab too small: %d slots for %d specs",
			len(bank), len(specs))
	}
	keys := u8.Values()
	denseCount(keys, rows, false, 0, len(rows), bank[:tileDom])
	for j, s := range specs {
		if s.Fn == AggCount {
			continue
		}
		col := pc.Column(s.Column)
		if col == nil {
			return fmt.Errorf("engine: unknown column %q", s.Column)
		}
		denseAccumCol(keys, col, rows, false, 0, len(rows), s.Fn, bank[(1+j)*tileDom:(2+j)*tileDom])
	}
	return nil
}
