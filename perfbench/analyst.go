package main

import (
	"fmt"
	"math"
	"math/rand"

	"gisnav/internal/geom"
	"gisnav/internal/sql"
)

// stmt is one generated analyst statement and its class.
type stmt struct {
	class string
	sql   string
}

// stmtGen generates the analyst mix. The select lists and predicate
// columns vary combinatorially, so the mix has far more statement shapes
// than the statement cache holds (256) and most statements plan cold.
type stmtGen struct {
	rng *rand.Rand
	ext geom.Envelope
}

func newStmtGen(ext geom.Envelope, seed int64) *stmtGen {
	return &stmtGen{rng: rand.New(rand.NewSource(seed)), ext: ext}
}

// Columns the generator draws from, with the value range of each
// predicate column in the generated data.
var (
	aggFns   = []string{"sum", "avg", "min", "max"}
	aggCols  = []string{"z", "intensity", "gps_time", "scan_angle", "point_source_id", "red", "green", "blue", "nir"}
	predCols = []struct {
		name   string
		lo, hi float64
	}{
		{"z", -2, 34}, {"intensity", 80, 1020}, {"classification", 2, 9},
		{"return_number", 1, 3}, {"scan_angle", -19, 19},
	}
	cmpOps   = []string{"<", ">", "<=", ">="}
	u8Cols   = []string{"return_number", "number_of_returns", "classification"}
	f64Keys  = []string{"z", "gps_time"}
	osmClass = []string{"motorway", "canal", "primary"}
	uaClass  = []string{"11100", "11210", "14100"}
)

// stmtClasses are the mix's statement classes and their weights, in
// the order next draws them.
var stmtClasses = []struct {
	name   string
	weight int
}{
	{"region_typed", 30},   // typed column kernels behind a neighbourhood region
	{"arith_compiled", 16}, // generic arithmetic predicate, compiled kernel
	{"interpreter", 14},    // fallible division, computed group keys
	{"group_exact", 16},    // sum/avg grouped by class: exact serial arm
	{"group_hash", 21},     // f64 and i32 hash grouping
	{"join", 3},            // osm/ua spatial joins
}

func (g *stmtGen) pick(xs []string) string { return xs[g.rng.Intn(len(xs))] }

// region returns a neighbourhood-scale box, 1% to 10% of the extent.
func (g *stmtGen) region() string {
	side := g.ext.Width() * 0.01 * math.Pow(10, g.rng.Float64())
	x := g.ext.MinX + g.rng.Float64()*(g.ext.Width()-side)
	y := g.ext.MinY + g.rng.Float64()*(g.ext.Height()-side)
	return viewport{env: geom.NewEnvelope(x, y, x+side, y+side)}.box()
}

// pred returns a typed comparison on one predicate column.
func (g *stmtGen) pred() string {
	p := predCols[g.rng.Intn(len(predCols))]
	c := p.lo + g.rng.Float64()*(p.hi-p.lo)
	return fmt.Sprintf("%s %s %s", p.name, g.pick(cmpOps), num(math.Round(c*100)/100))
}

func (g *stmtGen) agg() string { return fmt.Sprintf("%s(%s)", g.pick(aggFns), g.pick(aggCols)) }

func (g *stmtGen) next() stmt {
	total := 0
	for _, c := range stmtClasses {
		total += c.weight
	}
	r := g.rng.Intn(total)
	class := stmtClasses[len(stmtClasses)-1].name
	for _, c := range stmtClasses {
		if r < c.weight {
			class = c.name
			break
		}
		r -= c.weight
	}
	return stmt{class: class, sql: g.stmtOf(class)}
}

func (g *stmtGen) stmtOf(class string) string {
	switch class {
	case "region_typed":
		return fmt.Sprintf("SELECT count(*), %s FROM ahn2 WHERE %s AND %s", g.agg(), g.region(), g.pred())
	case "arith_compiled":
		where := fmt.Sprintf("%s * %d + %s > %d", g.pick(aggCols[:3]), 1+g.rng.Intn(3), g.pick(u8Cols), 100+g.rng.Intn(400))
		if g.rng.Intn(3) > 0 {
			where = g.region() + " AND " + where
		}
		return fmt.Sprintf("SELECT count(*), %s FROM ahn2 WHERE %s", g.agg(), where)
	case "interpreter":
		if g.rng.Intn(2) == 0 {
			return fmt.Sprintf("SELECT count(*), %s FROM ahn2 WHERE %s AND (%s / number_of_returns > %d OR %s)",
				g.agg(), g.region(), g.pick(aggCols[1:]), g.rng.Intn(1000), g.pred())
		}
		return fmt.Sprintf("SELECT %s + %s AS k, count(*), %s FROM ahn2 WHERE %s GROUP BY k",
			g.pick(u8Cols), g.pick(u8Cols), g.agg(), g.region())
	case "group_exact":
		where := ""
		if g.rng.Intn(2) == 0 {
			where = " WHERE " + g.region()
		}
		return fmt.Sprintf("SELECT classification, sum(%s), avg(%s) FROM ahn2%s GROUP BY classification",
			g.pick(aggCols), g.pick(aggCols), where)
	case "group_hash":
		if g.rng.Intn(4) == 0 {
			return fmt.Sprintf("SELECT scan_angle, count(*), %s FROM ahn2 GROUP BY scan_angle", g.agg())
		}
		k := g.pick(f64Keys)
		return fmt.Sprintf("SELECT %s, count(*), %s FROM ahn2 WHERE %s GROUP BY %s", k, g.agg(), g.region(), k)
	default: // join
		if g.rng.Intn(2) == 0 {
			return fmt.Sprintf("SELECT count(*), %s FROM ahn2, osm WHERE osm.class = '%s' AND ST_DWithin(osm.geom, ST_Point(ahn2.x, ahn2.y), %d)",
				g.agg(), g.pick(osmClass), 2+g.rng.Intn(8))
		}
		return fmt.Sprintf("SELECT count(*), %s FROM ahn2, ua WHERE ua.class = '%s' AND ST_Contains(ua.geom, ST_Point(ahn2.x, ahn2.y))",
			g.agg(), g.pick(uaClass))
	}
}

// sameResult reports whether two results are bit-identical: same columns,
// same rows in the same order, numbers equal bit for bit.
func sameResult(a, b *sql.Result) error {
	if len(a.Columns) != len(b.Columns) {
		return fmt.Errorf("columns: %v vs %v", a.Columns, b.Columns)
	}
	for i := range a.Columns {
		if a.Columns[i] != b.Columns[i] {
			return fmt.Errorf("columns: %v vs %v", a.Columns, b.Columns)
		}
	}
	if len(a.Rows) != len(b.Rows) {
		return fmt.Errorf("rows: %d vs %d", len(a.Rows), len(b.Rows))
	}
	for i := range a.Rows {
		if len(a.Rows[i]) != len(b.Rows[i]) {
			return fmt.Errorf("row %d: %v vs %v", i, a.Rows[i], b.Rows[i])
		}
		for j, v := range a.Rows[i] {
			w := b.Rows[i][j]
			if v.Kind != w.Kind || math.Float64bits(v.Num) != math.Float64bits(w.Num) ||
				v.Str != w.Str || v.Bool != w.Bool || v.String() != w.String() {
				return fmt.Errorf("row %d col %d: %v vs %v", i, j, v, w)
			}
		}
	}
	return nil
}
