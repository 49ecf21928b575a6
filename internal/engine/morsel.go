// Morsel-driven execution (PR 8): the compiled filter kernels, the fused
// aggregate and the grouped-aggregate strategies run as passes over
// cache-sized partitions ("morsels") of the shared resident worker set in
// internal/morsel. Each operator is one partition body over a span
// [start, end) of its selection or column plus one driver, and the driver
// runs every degree through morsel.Pass.Run — degree 1 included, where
// slot 0 runs inline on the caller. Partition 0 writes straight into the
// operator's destination (the caller's selection vector, the result bank,
// the result record), so the serial operator is the degree-1 pass of the
// same driver: no scratch, no copy, no merge.
//
// Determinism contract: output is bit-identical at every degree. That is
// cheap for filters (partitions are disjoint ascending row ranges;
// appending partitions 1..deg-1 to partition 0 in ascending order IS the
// row order) and provable for count/min/max (counts are exact integers
// in float64; min/max use strict compares seeded at ±Inf, so folding
// per-partition results in ascending-partition order reproduces the
// ascending fold bit-for-bit — equal-valued ties keep their earliest
// winner and NaN never wins). It is NOT true for sum/avg: float addition
// is not associative, and the aggregate-semantics invariant pins sums
// bit-identical to the ascending row-at-a-time loop — so sum/avg always
// run at degree 1 (specsMergeExact).
//
// Degree selection: morselDegree is the only rule — the run's cap
// (SetMaxParallel; the SQL layer sets it per run), clamped so every
// partition carries at least morselMinRows rows. A cap of 0 or 1 is
// serial, and small selections stay serial whatever the cap.
//
// Lifecycle contract (PR 6): per-worker scratch is pooled and registered
// on a per-worker release path — each RunPartition drains exactly the
// buffers it acquired before letting a panic escape, the pass machinery
// parks per-slot panics until every partition settles, and the driver
// recycles all surviving partials before re-raising the first panic for
// the query layer's recovery. Partitions poll the run's cancel token at
// block boundaries (scanChunk blocks in the fold loops, one accumulate
// pass in the grouped strategies) and park a checkpoint error per slot; a
// fired token surfaces from the driver with every buffer back in its
// pool. The engine.morsel.worker and engine.morsel.merge faultpoints
// prove both paths under -tags faultinject; a degree-1 pass has no worker
// partitions and no merge, so it hits neither.
package engine

import (
	"math"

	"gisnav/internal/cancel"
	"gisnav/internal/colstore"
	"gisnav/internal/faultpoint"
	"gisnav/internal/grid"
	"gisnav/internal/morsel"
)

// morselMinRows is the minimum row count per partition: below two
// partitions' worth the operator runs at degree 1 (this reproduces the
// old 1<<17 parallel crossover of the indexed range filter and of region
// refinement at degree 2).
const morselMinRows = 1 << 16

// morselDegree picks the fan-out degree for an operator driving rows
// rows: the run's cap (SetMaxParallel), clamped so every partition
// carries at least morselMinRows rows. A nil run, a cap of 0 or 1, or a
// small input yields 1: the serial pass.
func morselDegree(run *Run, rows int) int {
	return max(1, min(run.MaxParallel(), rows/morselMinRows))
}

// span is partition slot's share [start, end) of n rows in deg
// partitions.
func span(slot, deg, n int) (start, end int) {
	return slot * n / deg, (slot + 1) * n / deg
}

// workerPoint is the engine.morsel.worker fault point, hit at the top of
// every partition of a fanned-out pass.
func workerPoint(deg int) {
	if deg > 1 {
		if err := faultpoint.Hit("engine.morsel.worker"); err != nil {
			panic(err)
		}
	}
}

// mergePoint is the engine.morsel.merge fault point, hit before the
// ascending merge of partitions 1..deg-1 into partition 0.
func mergePoint(deg int) error {
	if deg > 1 {
		return faultpoint.Hit("engine.morsel.merge")
	}
	return nil
}

// slotErrs parks each partition's checkpoint error for the driver.
type slotErrs []error

// reset sizes the slots for deg partitions and clears them.
func (e slotErrs) reset(deg int) slotErrs {
	if cap(e) < deg {
		return make(slotErrs, deg)
	}
	e = e[:deg]
	clear(e)
	return e
}

// first returns the lowest partition's error, or nil.
func (e slotErrs) first() error {
	for _, err := range e {
		if err != nil {
			return err
		}
	}
	return nil
}

// --- block filter ---------------------------------------------------------------

// filterPass is the pooled scaffolding of one block-filter pass: the
// partition storage, the compiled kernel with its bound constant record,
// partition 0's destination and the result slots of partitions 1..n-1.
type filterPass struct {
	pass    morsel.Pass
	partBuf []colstore.Range
	cuts    []int
	parts   [][]colstore.Range
	out     []int
	results [][]int
	k       *Kernel
	a       KernelArgs
	full    [1]colstore.Range // candidate storage for the full-column drive
}

var filterPasses morsel.Free[filterPass]

// RunPartition drives the block kernel over one partition's ranges.
// Partition 0 appends straight into the caller's vector; every other
// partition appends into a pooled per-worker vector — this slot's release
// entry, which goes straight back to its pool on a panic before the panic
// re-raises into the morsel recovery. Cancellation is polled inside
// FilterBlock per scanChunk block (the token rides in the bound args), so
// a fired token leaves a partial vector the caller discards.
func (fp *filterPass) RunPartition(slot int) {
	if slot == 0 {
		workerPoint(len(fp.parts))
		fp.out = fp.filter(fp.parts[0], fp.out)
		return
	}
	buf := getRowBuf(colstore.RangesLen(fp.parts[slot]))
	defer func() {
		if p := recover(); p != nil {
			fp.results[slot] = nil
			rowPool.Put(buf)
			panic(p)
		}
	}()
	workerPoint(len(fp.parts))
	fp.results[slot] = fp.filter(fp.parts[slot], buf)
}

func (fp *filterPass) filter(part []colstore.Range, out []int) []int {
	for _, r := range part {
		out = fp.k.FilterBlock(fp.a, r.Start, r.End, out)
	}
	return out
}

// drain recycles every surviving partition result.
func (fp *filterPass) drain() {
	for i := range fp.results {
		if fp.results[i] != nil {
			rowPool.Put(fp.results[i])
			fp.results[i] = nil
		}
	}
}

// done clears the pass inputs and returns the scaffolding to its pool.
func (fp *filterPass) done() {
	fp.k = nil
	fp.a = KernelArgs{}
	fp.out = nil
	clear(fp.parts) // partition 0 may alias the caller's candidates
	filterPasses.Put(fp)
}

// filterFull drives the block kernel over the whole column [0, n) in deg
// partitions — the first-predicate fast path, which needs no candidate
// ranges.
func filterFull(k *Kernel, a KernelArgs, n, deg int, out []int) ([]int, error) {
	fp := filterPasses.Get()
	fp.full[0] = colstore.Range{End: n}
	return fp.run(k, a, fp.full[:1], deg, out)
}

// filterBlocks drives the block kernel over the candidate ranges in deg
// partitions, appending matches to out.
func filterBlocks(k *Kernel, a KernelArgs, cand []colstore.Range, deg int, out []int) ([]int, error) {
	return filterPasses.Get().run(k, a, cand, deg, out)
}

// run splits cand (via the shared grid partitioner), runs the partitions
// and appends partitions 1..n-1 to partition 0's output in ascending
// order — partitions are disjoint ascending row ranges, so the result is
// the row-order block drive. A partition panic re-raises here after all
// partitions settle, with every surviving partial already recycled; the
// merge faultpoint's error path proves the same accounting without a
// panic. out is returned on every non-panic exit: the caller owns it.
func (fp *filterPass) run(k *Kernel, a KernelArgs, cand []colstore.Range, deg int, out []int) ([]int, error) {
	fp.k, fp.a, fp.out = k, a, out
	fp.partBuf, fp.cuts, fp.parts = grid.SplitRangesInto(cand, deg, fp.partBuf, fp.cuts, fp.parts)
	n := len(fp.parts)
	if cap(fp.results) < n {
		fp.results = make([][]int, n)
	}
	fp.results = fp.results[:n]
	if p := fp.pass.Run(n, fp); p != nil {
		fp.drain()
		fp.done()
		panic(p)
	}
	out = fp.out
	if err := mergePoint(n); err != nil {
		fp.drain()
		fp.done()
		return out, err
	}
	for i := 1; i < n; i++ {
		out = append(out, fp.results[i]...)
		rowPool.Put(fp.results[i])
		fp.results[i] = nil
	}
	fp.done()
	return out, nil
}

// --- fused sum/min/max aggregate ------------------------------------------------

// aggPass is the pooled scaffolding of one fused aggregate: partition
// bounds are computed from (n, deg) per slot, and the per-slot folds land
// in preallocated banks — partitions own no pooled buffers, so a panic
// has nothing to drain.
type aggPass struct {
	pass           morsel.Pass
	col            colstore.Column
	rows           []int
	all            bool
	n, deg         int
	sums, los, his []float64
	tok            *cancel.Token
}

var aggPasses morsel.Free[aggPass]

// RunPartition folds one partition's sum, min and max.
func (ap *aggPass) RunPartition(slot int) {
	workerPoint(ap.deg)
	start, end := span(slot, ap.deg, ap.n)
	ap.sums[slot], ap.los[slot], ap.his[slot] = aggColumn(ap.col, ap.rows, ap.all, start, end, ap.tok)
}

// aggregate computes the fused sum/min/max over the selection (n rows;
// all = every row of the column) in deg partitions and folds the min/max
// partials in ascending-partition order — bit-identical to the ascending
// fold. The sum is only meaningful at degree 1, where it is partition 0's
// ascending row-order sum.
func aggregate(run *Run, col colstore.Column, rows []int, all bool, n, deg int) (sum, lo, hi float64, err error) {
	ap := aggPasses.Get()
	ap.col, ap.rows, ap.all = col, rows, all
	ap.n, ap.deg = n, deg
	ap.tok = run.Token()
	if cap(ap.los) < deg {
		ap.sums = make([]float64, deg)
		ap.los = make([]float64, deg)
		ap.his = make([]float64, deg)
	}
	ap.sums, ap.los, ap.his = ap.sums[:deg], ap.los[:deg], ap.his[:deg]
	p := ap.pass.Run(deg, ap)
	ap.col, ap.rows, ap.tok = nil, nil, nil
	if p != nil {
		aggPasses.Put(ap)
		panic(p)
	}
	sum, lo, hi = ap.sums[0], ap.los[0], ap.his[0]
	for s := 1; s < deg; s++ {
		if ap.los[s] < lo {
			lo = ap.los[s]
		}
		if ap.his[s] > hi {
			hi = ap.his[s]
		}
	}
	aggPasses.Put(ap)
	if err := mergePoint(deg); err != nil {
		return 0, 0, 0, err
	}
	if run.Cancelled() {
		return 0, 0, 0, cancel.ErrCancelled
	}
	return sum, lo, hi, nil
}

// --- grouped aggregation --------------------------------------------------------

// specsMergeExact reports whether every requested aggregate merges
// exactly across partitions: count (exact integer arithmetic in float64)
// and min/max (strict folds, order-associative). Sum and avg are
// excluded — float addition is not associative, and the aggregate
// semantics contract pins sums bit-identical to the ascending
// row-at-a-time fold — so plans containing them run at degree 1.
func specsMergeExact(specs []GroupedAggSpec) bool {
	for _, s := range specs {
		switch s.Fn {
		case AggCount, AggMin, AggMax:
		default:
			return false
		}
	}
	return true
}

// densePass is the pooled scaffolding of one dense grouped pass. Each
// partition's accumulator banks are one slab of a run-tracked buffer —
// slab 0 is the result bank — so partitions own no pooled buffers and a
// panic has nothing to drain; the driver recycles the buffer. Exactly one
// of keys8/keys16 is set.
type densePass struct {
	pass        morsel.Pass
	keys8       []uint8
	keys16      []uint16
	pc          *PointCloud
	rows        []int
	all         bool
	n, deg      int
	dom, stride int
	specs       []GroupedAggSpec
	banks       []float64
	errs        slotErrs
	tok         *cancel.Token
}

var densePasses morsel.Free[densePass]

func (dp *densePass) RunPartition(slot int) {
	workerPoint(dp.deg)
	if dp.keys8 != nil {
		dp.errs[slot] = densePartition(dp, dp.keys8, slot)
		return
	}
	dp.errs[slot] = densePartition(dp, dp.keys16, slot)
}

// densePartition runs the dense count pass and one accumulate pass per
// spec over one partition into its bank slab, with a pass checkpoint
// before each: one accumulate pass is this layer's block.
func densePartition[K denseKey](dp *densePass, keys []K, slot int) error {
	dom := dp.dom
	bank := dp.banks[slot*dp.stride : (slot+1)*dp.stride]
	start, end := span(slot, dp.deg, dp.n)
	if err := groupPassCheckpoint(dp.tok); err != nil {
		return err
	}
	cnt := bank[:dom]
	clear(cnt)
	denseCount(keys, dp.rows, dp.all, start, end, cnt)
	for j, s := range dp.specs {
		if err := groupPassCheckpoint(dp.tok); err != nil {
			return err
		}
		if s.Fn == AggCount {
			continue // served from the shared count bank at emit time
		}
		b := bank[(1+j)*dom : (2+j)*dom]
		seedBank(b, s.Fn)
		denseAccumCol(keys, dp.pc.Column(s.Column), dp.rows, dp.all, start, end, s.Fn, b)
	}
	return nil
}

// denseGroupPass is the array-indexed strategy: one bank of dom slots per
// aggregate plus the shared count bank per partition, merged into
// partition 0's slab in ascending-partition order (counts sum exactly;
// min/max fold strictly), then an ascending domain scan emits the
// non-empty groups — already in FloatOrderKey order. Exactly one of
// keys8/keys16 is non-nil; deg > 1 only when every spec is count/min/max
// (specsMergeExact).
func denseGroupPass(run *Run, pc *PointCloud, keys8 []uint8, keys16 []uint16, dom int, rows []int, all bool, n int, specs []GroupedAggSpec, res *GroupedResult, deg int) error {
	stride := dom * (1 + len(specs))
	banks := run.trackF64(getF64Buf(deg * stride))[:deg*stride]
	dp := densePasses.Get()
	dp.keys8, dp.keys16 = keys8, keys16
	dp.pc, dp.rows, dp.all = pc, rows, all
	dp.n, dp.deg, dp.dom, dp.stride = n, deg, dom, stride
	dp.specs, dp.banks = specs, banks
	dp.errs = dp.errs.reset(deg)
	dp.tok = run.Token()
	p := dp.pass.Run(deg, dp)
	err := dp.errs.first()
	dp.keys8, dp.keys16 = nil, nil
	dp.pc, dp.rows = nil, nil
	dp.specs, dp.banks = nil, nil
	dp.tok = nil
	densePasses.Put(dp)
	if p != nil {
		run.recycleF64(banks)
		panic(p)
	}
	if err == nil {
		err = mergePoint(deg)
	}
	if err != nil {
		run.recycleF64(banks)
		return err
	}
	base := banks[:stride]
	for w := 1; w < deg; w++ {
		wb := banks[w*stride : (w+1)*stride]
		for k := 0; k < dom; k++ {
			base[k] += wb[k]
		}
		for j, s := range specs {
			bb := base[(1+j)*dom : (2+j)*dom]
			sb := wb[(1+j)*dom : (2+j)*dom]
			switch s.Fn {
			case AggMin:
				for k := range bb {
					if sb[k] < bb[k] {
						bb[k] = sb[k]
					}
				}
			case AggMax:
				for k := range bb {
					if sb[k] > bb[k] {
						bb[k] = sb[k]
					}
				}
			}
		}
	}
	cnt := base[:dom]
	for k := 0; k < dom; k++ {
		c := cnt[k]
		if c == 0 {
			continue
		}
		res.Keys = append(res.Keys, float64(k))
		for j, s := range specs {
			v := base[(1+j)*dom+k]
			switch s.Fn {
			case AggCount:
				v = c
			case AggAvg:
				v /= c
			}
			res.Cols[j] = append(res.Cols[j], v)
		}
	}
	run.recycleF64(banks)
	return nil
}

// hashPass is the pooled scaffolding of one hash grouped pass. Each
// partition builds a local group table, slot vector and accumulator bank
// over its span — the per-worker release list: the slot's deferred
// recover drains exactly what the partition acquired before a panic
// re-raises, and the driver drains every surviving slot.
type hashPass struct {
	pass   morsel.Pass
	keyCol colstore.Column
	specs  []GroupedAggSpec
	pc     *PointCloud
	rows   []int
	all    bool
	n, deg int
	nacc   int // non-count specs, each owning one bank segment
	gs     []groupHash
	slotsv [][]int
	banks  [][]float64
	errs   slotErrs
	tok    *cancel.Token
}

var hashPasses morsel.Free[hashPass]

// RunPartition builds this partition's local groups: pass 0 assigns local
// slots (in first-appearance order) while counting, then one accumulate
// pass per non-count spec, a fused min/max pair sharing one gather pass.
// Results park in the per-slot fields for the driver.
func (hp *hashPass) RunPartition(slot int) {
	start, end := span(slot, hp.deg, hp.n)
	pn := end - start
	tabSize := 1 << 10
	for tabSize < 4*pn && tabSize < 1<<20 {
		tabSize <<= 1
	}
	g := groupHash{
		table: getRowBuf(tabSize)[:tabSize],
		keys:  getF64Buf(64),
		cnt:   getF64Buf(64),
	}
	slots := getRowBuf(pn)[:pn]
	var bank []float64
	defer func() {
		if p := recover(); p != nil {
			rowPool.Put(g.table)
			f64Pool.Put(g.keys)
			f64Pool.Put(g.cnt)
			rowPool.Put(slots)
			if bank != nil {
				f64Pool.Put(bank)
			}
			hp.gs[slot] = groupHash{}
			hp.slotsv[slot] = nil
			hp.banks[slot] = nil
			panic(p)
		}
	}()
	workerPoint(hp.deg)
	clear(g.table)
	err := groupPassCheckpoint(hp.tok)
	if err == nil {
		hashKeyCol(hp.keyCol, hp.rows, hp.all, start, &g, slots)
		groups := len(g.keys)
		bank = getF64Buf(hp.nacc * groups)[:hp.nacc*groups]
		err = hp.accumulate(start, slots, groups, bank)
	}
	hp.errs[slot] = err
	hp.gs[slot] = g
	hp.slotsv[slot] = slots
	hp.banks[slot] = bank
}

// accumulate fills the partition's bank: segment ai (the ai-th non-count
// spec) over groups slots, a fused min/max pair filling both segments in
// one gather pass.
func (hp *hashPass) accumulate(start int, slots []int, groups int, bank []float64) error {
	ai := 0
	var fusedDone uint64
	for j, s := range hp.specs {
		if s.Fn == AggCount {
			continue
		}
		if j < 64 && fusedDone&(1<<uint(j)) != 0 {
			ai++ // segment filled by an earlier partner's fused pass
			continue
		}
		if err := groupPassCheckpoint(hp.tok); err != nil {
			return err
		}
		b := bank[ai*groups : (ai+1)*groups]
		col := hp.pc.Column(s.Column)
		if k := fusePartner(hp.specs, j); k >= 0 && (s.Fn == AggMin || s.Fn == AggMax) {
			// The partner's segment sits at its own non-count ordinal.
			pai := ai + 1
			for m := j + 1; m < k; m++ {
				if hp.specs[m].Fn != AggCount {
					pai++
				}
			}
			lo, hi := b, bank[pai*groups:(pai+1)*groups]
			if s.Fn == AggMax {
				lo, hi = hi, lo
			}
			seedBank(lo, AggMin)
			seedBank(hi, AggMax)
			hashAccumMinMaxCol(col, hp.rows, hp.all, start, slots, lo, hi)
			fusedDone |= 1 << uint(k)
			ai++
			continue
		}
		seedBank(b, s.Fn)
		hashAccumCol(col, hp.rows, hp.all, start, slots, s.Fn, b)
		ai++
	}
	return nil
}

// drain recycles every surviving per-partition buffer (slots that
// panicked already drained their own and cleared their fields).
func (hp *hashPass) drain() {
	for w := range hp.gs {
		if hp.gs[w].table != nil {
			rowPool.Put(hp.gs[w].table)
			f64Pool.Put(hp.gs[w].keys)
			f64Pool.Put(hp.gs[w].cnt)
			hp.gs[w] = groupHash{}
		}
		if hp.slotsv[w] != nil {
			rowPool.Put(hp.slotsv[w])
			hp.slotsv[w] = nil
		}
		if hp.banks[w] != nil {
			f64Pool.Put(hp.banks[w])
			hp.banks[w] = nil
		}
	}
}

// done drains the partition buffers, clears the pass inputs and returns
// the scaffolding to its pool.
func (hp *hashPass) done() {
	hp.drain()
	hp.keyCol = nil
	hp.specs = nil
	hp.pc = nil
	hp.rows = nil
	hp.tok = nil
	hashPasses.Put(hp)
}

// hashGroupPass is the general-key strategy: per-partition local group
// tables over disjoint spans, partitions 1..deg-1 merged in ascending
// order into partition 0's table. Ascending merge makes the merged
// first-appearance order the row order (partition w's rows all precede
// partition w+1's), so the stored key value of every group — NaN payload
// included — is its first-seen value; counts sum exactly and min/max
// fold strictly straight into the result record, and the final
// FloatOrderKey sort orders the groups. deg > 1 only when every spec is
// count/min/max (specsMergeExact).
func hashGroupPass(run *Run, pc *PointCloud, keyCol colstore.Column, rows []int, all bool, n int, specs []GroupedAggSpec, res *GroupedResult, deg int) error {
	hp := hashPasses.Get()
	hp.keyCol, hp.specs, hp.pc = keyCol, specs, pc
	hp.rows, hp.all, hp.n, hp.deg = rows, all, n, deg
	hp.nacc = 0
	for _, s := range specs {
		if s.Fn != AggCount {
			hp.nacc++
		}
	}
	hp.tok = run.Token()
	if cap(hp.gs) < deg {
		hp.gs = make([]groupHash, deg)
		hp.slotsv = make([][]int, deg)
		hp.banks = make([][]float64, deg)
	}
	hp.gs, hp.slotsv, hp.banks = hp.gs[:deg], hp.slotsv[:deg], hp.banks[:deg]
	hp.errs = hp.errs.reset(deg)
	if p := hp.pass.Run(deg, hp); p != nil {
		hp.done()
		panic(p)
	}
	err := hp.errs.first()
	if err == nil {
		err = mergePoint(deg)
	}
	if err != nil {
		hp.done()
		return err
	}

	// Fold the later partitions' groups into partition 0's table, summing
	// counts; groups first seen in a later partition append after
	// partition 0's own.
	g := &hp.gs[0]
	groups0 := len(g.keys)
	for w := 1; w < deg; w++ {
		lg := &hp.gs[w]
		for l, key := range lg.keys {
			g.cnt[g.slotOf(key)] += lg.cnt[l]
		}
	}
	groups := len(g.keys)
	ai := 0
	for j, s := range specs {
		if s.Fn == AggCount {
			res.Cols[j] = append(res.Cols[j], g.cnt...)
			continue
		}
		col := append(res.Cols[j], hp.banks[0][ai*groups0:(ai+1)*groups0]...)
		seed := math.Inf(1)
		if s.Fn == AggMax {
			seed = math.Inf(-1)
		}
		for len(col) < groups {
			col = append(col, seed)
		}
		for w := 1; w < deg; w++ {
			lg := &hp.gs[w]
			lgroups := len(lg.keys)
			wb := hp.banks[w][ai*lgroups : (ai+1)*lgroups]
			for l, key := range lg.keys {
				gs := g.slotOf(key)
				if s.Fn == AggMin {
					if wb[l] < col[gs] {
						col[gs] = wb[l]
					}
				} else if wb[l] > col[gs] {
					col[gs] = wb[l]
				}
			}
		}
		if s.Fn == AggAvg {
			for i := range col {
				col[i] /= g.cnt[i]
			}
		}
		res.Cols[j] = col
		ai++
	}
	res.Keys = append(res.Keys, g.keys...)
	hp.done()
	sortGrouped(res)
	return nil
}
