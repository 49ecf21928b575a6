// Tile-grouped pre-aggregation (PR 10): the engine entry points the
// pyramid builds on. TileGroupedAggregateRun scatters the whole table
// into per-(tile, class) banks — a grouped-aggregate pass whose composite
// slot is the row's quantised tile times the 256-class domain — fanned
// across the morsel worker set exactly like the dense grouped strategy:
// per-worker bank slabs merged in ascending-partition order, which is
// exact for count/min/max. Sum banks force the serial arm: per-tile sums
// are pinned to the ascending row-order fold by the float-determinism
// invariant, and partition merging would reassociate them.
// GroupedAccumulateRows is the query-time counterpart: it folds the same
// compiled kernels over an explicit row list into 256-slot class banks —
// the boundary-tile refinement of a pyramid lookup.
package engine

import (
	"fmt"
	"math"
	"time"

	"gisnav/internal/cancel"
	"gisnav/internal/colstore"
	"gisnav/internal/faultpoint"
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
// run serial so each tile's sum folds rows in ascending row order.
func (pc *PointCloud) TileGroupedAggregateRun(run *Run, tiler sfc.Grid, keyCol string, specs []GroupedAggSpec, cnt []float64, banks [][]float64, ex *Explain) error {
	start := time.Now()
	keys, nslots, err := pc.tileBankShape(tiler, keyCol, specs, cnt, banks)
	if err != nil {
		return err
	}
	for i := range cnt[:nslots] {
		cnt[i] = 0
	}
	for j, s := range specs {
		if s.Fn != AggCount {
			seedBank(banks[j][:nslots], s.Fn)
		}
	}

	n := pc.Len()
	if n == 0 {
		return nil
	}
	deg := 1
	if specsMergeExact(specs) {
		deg = pc.morselDegree(run, n)
	}
	if deg > 1 {
		err = pc.tileGroupedMorsel(run, tiler, keys, specs, cnt, banks, nslots, n, deg)
	} else {
		err = pc.tileGroupedSerial(run, tiler, keys, specs, cnt, banks, 0)
	}
	if err != nil {
		return err
	}
	if ex != nil {
		ex.Add(opTileAgg, fmt.Sprintf("order %d, %d aggs [par %d]", tiler.Order, len(specs), deg),
			n, nslots, time.Since(start))
	}
	return nil
}

// TileGroupedAppendRun folds rows [from, Len()) into banks that hold the
// TileGroupedAggregateRun result over the table's first `from` rows — the
// pyramid's append path. Banks are not reseeded: the new rows fold
// serially in ascending row order after the existing values, which is
// the fold a build over all rows performs (count/min/max merge exactly in
// any order, per-tile sums continue their ascending row-order fold), so
// the banks come out bit-identical to that build.
func (pc *PointCloud) TileGroupedAppendRun(run *Run, tiler sfc.Grid, keyCol string, specs []GroupedAggSpec, from int, cnt []float64, banks [][]float64) error {
	keys, _, err := pc.tileBankShape(tiler, keyCol, specs, cnt, banks)
	if err != nil {
		return err
	}
	return pc.tileGroupedSerial(run, tiler, keys, specs, cnt, banks, from)
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

// tileAccumCol dispatches one scatter-accumulate pass over global rows
// [start, end) with their partition-local slot vector to the value
// column's concrete type — the same monomorphic loops as the grouped hash
// strategy, driven by the composite tile slot.
func tileAccumCol(col colstore.Column, start, end int, slots []int, fn AggFunc, bank []float64) {
	switch c := col.(type) {
	case *colstore.F64Column:
		hashAccum(c.Values()[start:end], nil, true, slots, fn, bank)
	case *colstore.I64Column:
		hashAccum(c.Values()[start:end], nil, true, slots, fn, bank)
	case *colstore.I32Column:
		hashAccum(c.Values()[start:end], nil, true, slots, fn, bank)
	case *colstore.U16Column:
		hashAccum(c.Values()[start:end], nil, true, slots, fn, bank)
	case *colstore.U8Column:
		hashAccum(c.Values()[start:end], nil, true, slots, fn, bank)
	default:
		for i, s := range slots {
			accumOne(fn, bank, s, col.Value(start+i))
		}
	}
}

// tileGroupedSerial is the single-core scatter of rows [from, len(keys)):
// one slot pass, one count pass, one accumulate pass per non-count spec,
// polling the cancel token between passes like the serial grouped
// strategies.
func (pc *PointCloud) tileGroupedSerial(run *Run, tiler sfc.Grid, keys []uint8, specs []GroupedAggSpec, cnt []float64, banks [][]float64, from int) error {
	n := len(keys)
	slots := run.TrackRows(getRowBuf(n - from))[:n-from]
	tileSlots(pc.xs.Values(), pc.ys.Values(), keys, tiler, from, n, slots)
	for _, s := range slots {
		cnt[s]++
	}
	for j, s := range specs {
		if err := groupPassCheckpoint(run); err != nil {
			run.RecycleRows(slots)
			return err
		}
		if s.Fn == AggCount {
			continue
		}
		tileAccumCol(pc.Column(s.Column), from, n, slots, s.Fn, banks[j])
	}
	run.RecycleRows(slots)
	return nil
}

// tilePass is the pooled fan-out scaffolding of one parallel tile scatter.
// Per-worker banks are disjoint slabs of one run-tracked buffer (the dense
// grouped layout); the per-worker slot vector is this slot's pooled
// buffer, recycled on every exit path including panic.
type tilePass struct {
	pass   morsel.Pass
	xs, ys []float64
	keys   []uint8
	tiler  sfc.Grid
	pc     *PointCloud
	specs  []GroupedAggSpec
	n, deg int
	nslots int
	stride int
	accIdx []int // per spec: 1-based slab bank index; 0 for count
	banks  []float64
	tok    *cancel.Token
}

var tilePasses passFree[tilePass]

func (tp *tilePass) release() {
	tp.xs, tp.ys, tp.keys = nil, nil, nil
	tp.pc, tp.specs, tp.banks = nil, nil, nil
	tp.tok = nil
}

// RunPartition quantises and scatters one partition into its bank slab.
// One accumulate pass is this layer's block (as in groupPassCheckpoint),
// so the token is polled between passes.
func (tp *tilePass) RunPartition(slot int) {
	start := slot * tp.n / tp.deg
	end := (slot + 1) * tp.n / tp.deg
	slots := getRowBuf(end - start)[:end-start]
	defer rowPool.Put(slots)
	if err := faultpoint.Hit("engine.morsel.worker"); err != nil {
		panic(err)
	}
	tileSlots(tp.xs, tp.ys, tp.keys, tp.tiler, start, end, slots)
	bank := tp.banks[slot*tp.stride : (slot+1)*tp.stride]
	cnt := bank[:tp.nslots]
	for i := range cnt {
		cnt[i] = 0
	}
	for _, s := range slots {
		cnt[s]++
	}
	for j, sp := range tp.specs {
		if tp.tok.Cancelled() {
			return
		}
		if sp.Fn == AggCount {
			continue
		}
		b := bank[tp.accIdx[j]*tp.nslots : (tp.accIdx[j]+1)*tp.nslots]
		seedBank(b, sp.Fn)
		tileAccumCol(tp.pc.Column(sp.Column), start, end, slots, sp.Fn, b)
	}
}

// tileGroupedMorsel fans the tile scatter over deg partitions and merges
// the per-worker slabs in ascending-partition order — exact for
// count/min/max (specsMergeExact holds on this path), so the merged banks
// are bit-identical to the serial scatter.
func (pc *PointCloud) tileGroupedMorsel(run *Run, tiler sfc.Grid, keys []uint8, specs []GroupedAggSpec, cnt []float64, banks [][]float64, nslots, n, deg int) error {
	nacc := 0
	for _, s := range specs {
		if s.Fn != AggCount {
			nacc++
		}
	}
	stride := nslots * (1 + nacc)
	wb := run.trackF64(getF64Buf(deg * stride))[:deg*stride]
	tp := tilePasses.get()
	tp.xs, tp.ys, tp.keys = pc.xs.Values(), pc.ys.Values(), keys
	tp.tiler, tp.pc, tp.specs = tiler, pc, specs
	tp.n, tp.deg, tp.nslots, tp.stride = n, deg, nslots, stride
	tp.banks = wb
	tp.tok = run.Token()
	if cap(tp.accIdx) < len(specs) {
		tp.accIdx = make([]int, len(specs))
	}
	tp.accIdx = tp.accIdx[:len(specs)]
	ai := 0
	for j, s := range specs {
		tp.accIdx[j] = 0
		if s.Fn != AggCount {
			ai++
			tp.accIdx[j] = ai
		}
	}
	if p := tp.pass.Run(deg, tp); p != nil {
		tp.release()
		tilePasses.put(tp)
		run.recycleF64(wb)
		panic(p)
	}
	accIdx := tp.accIdx
	tp.release()
	tilePasses.put(tp)
	if err := faultpoint.Hit("engine.morsel.merge"); err != nil {
		run.recycleF64(wb)
		return err
	}
	if run.Cancelled() {
		run.recycleF64(wb)
		return cancel.ErrCancelled
	}
	for w := 0; w < deg; w++ {
		slab := wb[w*stride : (w+1)*stride]
		for s, c := range slab[:nslots] {
			cnt[s] += c
		}
		for j, sp := range specs {
			if sp.Fn == AggCount {
				continue
			}
			sb := slab[accIdx[j]*nslots : (accIdx[j]+1)*nslots]
			b := banks[j]
			switch sp.Fn {
			case AggMin:
				for s, v := range sb {
					if v < b[s] {
						b[s] = v
					}
				}
			case AggMax:
				for s, v := range sb {
					if v > b[s] {
						b[s] = v
					}
				}
			}
		}
	}
	run.recycleF64(wb)
	return nil
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
	denseCount(keys, rows, false, bank[:tileDom])
	for j, s := range specs {
		if s.Fn == AggCount {
			continue
		}
		col := pc.Column(s.Column)
		if col == nil {
			return fmt.Errorf("engine: unknown column %q", s.Column)
		}
		denseAccumCol(keys, col, rows, false, s.Fn, bank[(1+j)*tileDom:(2+j)*tileDom])
	}
	return nil
}
