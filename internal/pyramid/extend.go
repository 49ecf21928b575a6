package pyramid

import (
	"fmt"
	"slices"
	"time"

	"gisnav/internal/engine"
)

// Extending a pyramid over appended rows. A PointCloud never rewrites a
// row — every mutation path appends — so a pyramid built over the first
// p.n rows stays exact for them and only the rows past p.n are new. When
// those rows fit p's tiling (inside its extent, same base order), the
// update below reproduces a fresh build bit for bit: the base banks and
// metadata fold the new rows in ascending row order after the existing
// values, exactly the order the build folds them in, and every touched
// ancestor tile is refolded from its four children in foldLevel's fixed
// order. Cost: O(appended rows + touched tiles) plus one copy of the row
// postings, against the full build's O(table) quantise, scatter and fold.

// extend derives the pyramid for the table at epoch from p, an entry
// built at an earlier epoch with only appends since. It consumes the
// caller's reference to p. sole reports that this reference is the only
// one: p then updates in place; otherwise the update lands in a copy and
// pinned readers finish on p unchanged. The result carries one reference
// for the caller. A nil result with nil error means the appended rows do
// not fit p's tiling and the caller must build afresh; an error (a
// cancelled run) leaves nothing behind.
func (p *Pyramid) extend(run *engine.Run, epoch uint64, sole bool, ex *engine.Explain) (*Pyramid, error) {
	start := time.Now()
	n := p.pc.Len()
	if !p.fits(n) {
		p.Release()
		return nil, nil
	}
	q := p
	if !sole {
		q = p.cloneBanks()
	}
	bl := &q.levels[q.base]
	if err := q.pc.TileGroupedAppendRun(run, bl.grid, q.key, q.specs, q.n, bl.cnt, bl.banks); err != nil {
		// The base banks may be half folded: nothing of q survives.
		q.Release()
		if q != p {
			p.Release()
		}
		return nil, err
	}
	touched := q.extendBase(run, p, n)
	if q != p {
		p.Release() // the cache's reference; pinned readers keep p alive
	}
	ntouched := len(touched)
	q.refold(touched)
	run.RecycleRows(touched)
	if ex != nil {
		ex.Add("tile.agg", fmt.Sprintf("extend +%d rows, order %d, %d aggs", n-q.n, q.base, len(q.specs)),
			n-q.n, ntouched, time.Since(start))
	}
	q.atEpoch, q.n = epoch, n
	return q, nil
}

// extendBase folds rows [q.n, n) into the base level's row totals and
// data bounding boxes, in ascending row order after the existing values,
// and grows the row postings: each tile's old rows (read from src, which
// is q itself on an in-place update) followed by its new ones. It
// returns the distinct base tiles the new rows landed in, in a
// run-pooled buffer.
func (q *Pyramid) extendBase(run *engine.Run, src *Pyramid, n int) []int {
	bl := &q.levels[q.base]
	ntiles := 1 << (2 * q.base)
	xs, ys := q.pc.X(), q.pc.Y()
	added := run.AcquireRows(ntiles)[:ntiles]
	for t := range added {
		added[t] = 0
	}
	tiles := run.AcquireRows(n - q.n)[:n-q.n]
	touched := run.AcquireRows(min(n-q.n, ntiles))[:0]
	for r := q.n; r < n; r++ {
		t := bl.addRow(xs[r], ys[r])
		tiles[r-q.n] = t
		if added[t] == 0 {
			touched = append(touched, t)
		}
		added[t]++
	}
	q.growPostings(src, n, tiles, added)
	run.RecycleRows(tiles)
	run.RecycleRows(added)
	return touched
}

// growPostings rebuilds the row postings for rows [q.n, n), whose base
// tiles are tiles[r-q.n], with added[t] of them in tile t (consumed as
// scratch): each tile's old rows, read from src, followed by its new
// ones. The postings are owner-scoped like everything newPyramid
// acquires. An in-place update with room in q's buffer shifts the tiles
// within it; otherwise a new buffer, with headroom for the next appends,
// replaces q's, whose old one returns to the pool unless it is src's.
func (q *Pyramid) growPostings(src *Pyramid, n int, tiles, added []int) {
	ntiles := len(added)
	rows := q.rows[:cap(q.rows)]
	fresh := src != q || len(rows) < n
	if fresh {
		rows = engine.AcquireRows(n + n/8)
		rows = rows[:cap(rows)]
	}
	rows = rows[:n]
	// Walk the tiles from last to first: tile t's rows move right by the
	// rows added to the tiles before it, and every later tile has already
	// moved past them. q.offs may be src.offs, so each old offset is read
	// before it is overwritten. added[t] becomes the cursor where tile
	// t's new rows go.
	shift := n - q.n
	hi := src.offs[ntiles]
	q.offs[ntiles] = n
	for t := ntiles - 1; t >= 0; t-- {
		shift -= added[t]
		lo := src.offs[t]
		copy(rows[lo+shift:], src.rows[lo:hi])
		q.offs[t] = lo + shift
		added[t] = hi + shift
		hi = lo
	}
	for i, t := range tiles {
		rows[added[t]] = q.n + i
		added[t]++
	}
	if fresh && src == q {
		engine.RecycleRows(q.rows)
	}
	q.rows = rows
}

// refold refolds the ancestors of the touched base tiles, level by level
// up to the root, each from its four children in foldLevel's order.
// touched is reused as scratch.
func (q *Pyramid) refold(touched []int) {
	cur := touched
	for o := int(q.base) - 1; o >= 0; o-- {
		// Map each child tile (order o+1) to its parent, in place: entry i
		// is written after it was read.
		mask := 1<<(o+1) - 1
		for i, t := range cur {
			cx, cy := t&mask, t>>(o+1)
			cur[i] = (cy>>1)<<o | cx>>1
		}
		slices.Sort(cur)
		cur = slices.Compact(cur)
		for _, t := range cur {
			foldTile(&q.levels[o], &q.levels[o+1], q.specs, t&(1<<o-1), t>>o)
		}
	}
}

// fits reports whether rows [p.n, n) can extend p: the table only grew,
// the base tiling a build over n rows would pick is p's, and every new
// (x, y) lies inside p.ext — so the table extent, and with it the
// quantisation of every old row, is unchanged. NaN coordinates fail the
// test too and take the build path. Reads only the appended rows, never
// the table: no Extent call.
func (p *Pyramid) fits(n int) bool {
	if n < p.n || baseOrderFor(n) != p.base {
		return false
	}
	xs, ys := p.pc.X(), p.pc.Y()
	for r := p.n; r < n; r++ {
		x, y := xs[r], ys[r]
		if !(x >= p.ext.MinX && x <= p.ext.MaxX && y >= p.ext.MinY && y <= p.ext.MaxY) {
			return false
		}
	}
	return true
}
