package engine

import (
	"fmt"
	"math"
	"time"

	"gisnav/internal/cancel"
	"gisnav/internal/colstore"
)

// AggFunc is an aggregate function over a column.
type AggFunc uint8

// Supported aggregates.
const (
	AggCount AggFunc = iota + 1
	AggSum
	AggAvg
	AggMin
	AggMax
)

// String renders the function name.
func (f AggFunc) String() string {
	switch f {
	case AggCount:
		return "count"
	case AggSum:
		return "sum"
	case AggAvg:
		return "avg"
	case AggMin:
		return "min"
	case AggMax:
		return "max"
	default:
		return "?"
	}
}

// Aggregate computes fn over the named column restricted to the selection
// vector rows (nil means all rows). Count ignores the column name.
//
// Sum, min and max are fused into one typed pass per column type — no
// per-value closure, no interface dispatch — for both the all-rows and the
// selection-vector path. Accumulation stays in float64 in ascending row
// order, so results are bit-identical to the naive widening loop.
func (pc *PointCloud) Aggregate(rows []int, fn AggFunc, column string, ex *Explain) (float64, error) {
	return pc.AggregateRun(nil, rows, fn, column, ex)
}

// AggregateRun is Aggregate under a query lifecycle. Min and max over
// large inputs fan across the resident worker set (morsel.go): strict
// folds merged in ascending-partition order are bit-identical to the
// ascending fold. Sum and avg always run at degree 1 — float addition is
// not associative, and sums are pinned bit-identical to the row-at-a-time
// loop — and count reads no values at all. The fold polls the run's
// cancellation token once per scanChunk block. A nil run behaves exactly
// like Aggregate.
func (pc *PointCloud) AggregateRun(run *Run, rows []int, fn AggFunc, column string, ex *Explain) (float64, error) {
	start := time.Now()
	n := len(rows)
	all := rows == nil
	if all {
		n = pc.Len()
	}
	if fn == AggCount {
		if ex != nil {
			ex.Add(opAggregate, "count(*)", n, 1, time.Since(start))
		}
		return float64(n), nil
	}
	col := pc.Column(column)
	if col == nil {
		return 0, fmt.Errorf("engine: unknown column %q", column)
	}
	deg := 1
	if fn == AggMin || fn == AggMax {
		deg = morselDegree(run, n)
	}
	sum, lo, hi, err := aggregate(run, col, rows, all, n, deg)
	if err != nil {
		return 0, err
	}
	var res float64
	switch fn {
	case AggSum:
		res = sum
	case AggAvg:
		if n == 0 {
			return 0, fmt.Errorf("engine: avg over empty selection")
		}
		res = sum / float64(n)
	case AggMin:
		if n == 0 {
			return 0, fmt.Errorf("engine: min over empty selection")
		}
		res = lo
	case AggMax:
		if n == 0 {
			return 0, fmt.Errorf("engine: max over empty selection")
		}
		res = hi
	default:
		return 0, fmt.Errorf("engine: unknown aggregate %d", fn)
	}
	if ex != nil {
		detail := fmt.Sprintf("%s(%s)", fn, column)
		if deg > 1 {
			detail = fmt.Sprintf("%s [par %d]", detail, deg)
		}
		ex.Add(opAggregate, detail, n, 1, time.Since(start))
	}
	return res, nil
}

// aggColumn folds sum, min and max over the span [start, end) of the
// selection (or of the full column when all), dispatching once to the
// typed fused kernel for col's concrete type.
func aggColumn(col colstore.Column, rows []int, all bool, start, end int, tok *cancel.Token) (sum, lo, hi float64) {
	switch t := col.(type) {
	case *colstore.F64Column:
		return aggVals(t.Values(), rows, all, start, end, tok)
	case *colstore.I64Column:
		return aggVals(t.Values(), rows, all, start, end, tok)
	case *colstore.I32Column:
		return aggVals(t.Values(), rows, all, start, end, tok)
	case *colstore.U16Column:
		return aggVals(t.Values(), rows, all, start, end, tok)
	case *colstore.U8Column:
		return aggVals(t.Values(), rows, all, start, end, tok)
	default:
		lo, hi = math.Inf(1), math.Inf(-1)
		for b := start; b < end; b += scanChunk {
			if tok.Cancelled() {
				break
			}
			be := min(b+scanChunk, end)
			for i := b; i < be; i++ {
				r := i
				if !all {
					r = rows[i]
				}
				v := col.Value(r)
				sum += v
				if v < lo {
					lo = v
				}
				if v > hi {
					hi = v
				}
			}
		}
		return sum, lo, hi
	}
}

// aggVals is the monomorphic fused sum/min/max loop, polling tok once
// per scanChunk block. Values widen to float64 exactly as the generic
// Value() path does and accumulate in ascending row order across blocks;
// for an empty span the min/max stay at ±Inf (callers gate on n == 0
// before using them).
func aggVals[T number](vals []T, rows []int, all bool, start, end int, tok *cancel.Token) (sum, lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for b := start; b < end; b += scanChunk {
		if tok.Cancelled() {
			break
		}
		be := min(b+scanChunk, end)
		if all {
			for _, t := range vals[b:be] {
				v := float64(t)
				sum += v
				if v < lo {
					lo = v
				}
				if v > hi {
					hi = v
				}
			}
			continue
		}
		for _, r := range rows[b:be] {
			v := float64(vals[r])
			sum += v
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
	}
	return sum, lo, hi
}
