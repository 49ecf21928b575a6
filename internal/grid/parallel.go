package grid

import (
	"gisnav/internal/colstore"
	"gisnav/internal/faultpoint"
	"gisnav/internal/geom"
	"gisnav/internal/morsel"
)

// partialPool recycles the partial match vectors of partitions 1..deg-1
// (same substrate as the engine's selection-vector pool; 32M rows total
// budget).
var partialPool = colstore.Pool[int]{MaxElts: 1 << 25}

// refineScratch is the reusable fan-out scaffolding of one refinement
// pass: the partition range storage, the per-partition result and stat
// slots, and the pass inputs the partitions read. It recycles through a
// free list so a steady query stream stops allocating O(partitions)
// bookkeeping per query. Partitions fan across the shared resident worker
// set (internal/morsel) — refineScratch is the pass's morsel.Runner.
type refineScratch struct {
	partBuf []colstore.Range // backing storage for every partition's ranges
	cuts    []int            // partition end offsets into partBuf
	parts   [][]colstore.Range
	results [][]int
	stats   []Stats
	pass    morsel.Pass
	xs, ys  []float64
	region  Region
	opts    Options
	out     []int // partition 0's destination: the caller's matches
}

var refineScratches morsel.Free[refineScratch]

// RunPartition refines one partition. Partition 0 appends straight into
// the caller's matches; every other partition refines into a pooled
// partial buffer. On a panic below it the partial buffer goes straight
// back to its pool and the result slot is cleared before the panic
// re-raises into the morsel recovery — pool accounting stays balanced
// whichever way the partition ends, and RefineParallelInto re-raises the
// first parked panic after every partition has settled.
func (sc *refineScratch) RunPartition(slot int) {
	if slot == 0 {
		sc.partitionPoint()
		sc.out, sc.stats[0] = RefineInto(sc.xs, sc.ys, sc.parts[0], sc.region, sc.opts, sc.out)
		return
	}
	buf := partialPool.Get(colstore.RangesLen(sc.parts[slot]))
	defer func() {
		if p := recover(); p != nil {
			sc.results[slot] = nil
			partialPool.Put(buf)
			panic(p)
		}
	}()
	sc.partitionPoint()
	sc.results[slot], sc.stats[slot] = RefineInto(sc.xs, sc.ys, sc.parts[slot], sc.region, sc.opts, buf)
}

// partitionPoint is the grid.refine.partition fault point, hit at the top
// of every partition of a fanned-out pass; a one-partition pass is the
// serial refinement and never hits it.
func (sc *refineScratch) partitionPoint() {
	if len(sc.parts) > 1 {
		if err := faultpoint.Hit("grid.refine.partition"); err != nil {
			panic(err)
		}
	}
}

// release clears the pass inputs so a pooled scratch retains no caller
// state (column backings, region geometry, the caller's matches) between
// queries.
func (sc *refineScratch) release() {
	sc.xs, sc.ys = nil, nil
	sc.region = nil
	sc.opts = Options{}
	sc.out = nil
	clear(sc.parts) // partition 0 may alias the caller's candidates
}

// RefineParallelInto is RefineInto over deg order-preserving partitions of
// cand fanned across the resident worker set. Partition 0 runs on the
// calling goroutine and appends straight into matches; partitions
// 1..deg-1 refine into pooled partial vectors appended after it in
// ascending order, so the result is identical to RefineInto (cell
// classifications are deterministic, so a cell classified by two
// partitions reaches the same verdict in both). deg <= 1 is the serial
// refinement: one partition, no scratch, no copy. Stats are summed across
// partitions — CellsTouched can exceed the distinct-cell count when
// partitions share cells.
//
// A panic in any partition is re-raised here after all partitions settle,
// with every partial buffer already recycled; the worker set stays alive
// and serves later passes.
func RefineParallelInto(xs, ys []float64, cand []colstore.Range, region Region, opts Options, deg int, matches []int) ([]int, Stats) {
	sc := refineScratches.Get()
	sc.xs, sc.ys, sc.region, sc.opts, sc.out = xs, ys, region, opts, matches
	sc.split(cand, deg)
	n := len(sc.parts)
	if p := sc.pass.Run(n, sc); p != nil {
		// A panicked partition poisons the whole pass: recycle every
		// surviving partial buffer, return the scratch clean, and
		// re-raise the first panic for the query layer's recovery.
		for v := 1; v < n; v++ {
			if sc.results[v] != nil {
				partialPool.Put(sc.results[v])
				sc.results[v] = nil
			}
		}
		sc.release()
		refineScratches.Put(sc)
		panic(p)
	}

	matches = sc.out
	var st Stats
	for w := 0; w < n; w++ {
		if w > 0 {
			matches = append(matches, sc.results[w]...)
			partialPool.Put(sc.results[w])
			sc.results[w] = nil
		}
		st.Matches += sc.stats[w].Matches
		st.CandidateRows += sc.stats[w].CandidateRows
		st.CellsTouched += sc.stats[w].CellsTouched
		st.InsideCells += sc.stats[w].InsideCells
		st.BoundaryCells += sc.stats[w].BoundaryCells
		st.OutsideCells += sc.stats[w].OutsideCells
		st.BulkAccepted += sc.stats[w].BulkAccepted
		st.ExactTests += sc.stats[w].ExactTests
		st.GridCellsX = max(st.GridCellsX, sc.stats[w].GridCellsX)
		st.GridCellsY = max(st.GridCellsY, sc.stats[w].GridCellsY)
	}
	sc.release()
	refineScratches.Put(sc)
	return matches, st
}

// split cuts cand into at most n order-preserving partitions of roughly
// equal row counts via SplitRangesInto, then sizes the per-partition
// result and stat slots.
func (sc *refineScratch) split(cand []colstore.Range, n int) {
	sc.partBuf, sc.cuts, sc.parts = SplitRangesInto(cand, n, sc.partBuf, sc.cuts, sc.parts)
	if cap(sc.results) < len(sc.parts) {
		sc.results = make([][]int, len(sc.parts))
		sc.stats = make([]Stats, len(sc.parts))
		return
	}
	sc.results = sc.results[:len(sc.parts)]
	sc.stats = sc.stats[:len(sc.parts)]
	for i := range sc.stats {
		sc.stats[i] = Stats{}
		sc.results[i] = nil
	}
}

// SplitRangesInto cuts a sorted range list into at most n partitions of
// roughly equal row counts, preserving order (partition i's rows all
// precede partition i+1's), reusing the caller's backing storage: one
// shared range array, the partition end offsets, and the partition
// headers. It is the single partitioning definition — the refinement pass
// and the engine's morsel drivers both split through it — and it
// allocates nothing once the caller's slices have grown to the workload's
// usual partition count. n <= 1 yields cand itself as the one partition,
// without copying. The returned partitions alias partBuf (or cand); treat
// them as read-only and do not recycle cand before they are consumed.
func SplitRangesInto(cand []colstore.Range, n int, partBuf []colstore.Range, cuts []int, parts [][]colstore.Range) ([]colstore.Range, []int, [][]colstore.Range) {
	if n <= 1 {
		return partBuf[:0], cuts[:0], append(parts[:0], cand)
	}
	total := colstore.RangesLen(cand)
	target := (total + n - 1) / n
	partBuf = partBuf[:0]
	cuts = cuts[:0]
	currentRows := 0
	for _, r := range cand {
		for r.Len() > 0 {
			room := target - currentRows
			if room <= 0 {
				cuts = append(cuts, len(partBuf))
				currentRows = 0
				room = target
			}
			take := r.Len()
			if take > room {
				take = room
			}
			partBuf = append(partBuf, colstore.Range{Start: r.Start, End: r.Start + take})
			currentRows += take
			r.Start += take
		}
	}
	if len(partBuf) > 0 && (len(cuts) == 0 || cuts[len(cuts)-1] != len(partBuf)) {
		cuts = append(cuts, len(partBuf))
	}
	parts = parts[:0]
	prev := 0
	for _, cut := range cuts {
		parts = append(parts, partBuf[prev:cut:cut])
		prev = cut
	}
	return partBuf, cuts, parts
}

// compile-time check that regions used here satisfy the interface.
var _ Region = GeometryRegion{G: geom.Point{}}
