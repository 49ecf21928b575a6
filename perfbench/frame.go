package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"time"

	"gisnav/internal/engine"
	"gisnav/internal/geom"
	"gisnav/internal/sql"
)

// A frame is what a map viewer issues per pan or zoom step: a thematic
// count/average, a per-class histogram and a point sample of the viewport.
const sampleLimit = 1000

// thematicClasses are the classification codes the thematic predicate
// picks from (ground, vegetation, building, water).
var thematicClasses = []int{2, 3, 4, 5, 6, 9}

type viewport struct {
	env   geom.Envelope
	class int
}

func num(f float64) string { return strconv.FormatFloat(f, 'f', -1, 64) }

func (v viewport) box() string {
	e := v.env
	return fmt.Sprintf("ST_Contains(ST_MakeEnvelope(%s, %s, %s, %s), ST_Point(x, y))",
		num(e.MinX), num(e.MinY), num(e.MaxX), num(e.MaxY))
}

// statements returns the frame's three SQL statements.
func (v viewport) statements() [3]string {
	box := v.box()
	return [3]string{
		fmt.Sprintf("SELECT count(*), avg(z) FROM ahn2 WHERE %s AND classification = %d", box, v.class),
		fmt.Sprintf("SELECT classification, count(*), min(z), max(z) FROM ahn2 WHERE %s GROUP BY classification", box),
		fmt.Sprintf("SELECT x, y, z, classification FROM ahn2 WHERE %s LIMIT %d", box, sampleLimit),
	}
}

// sessionSteps is the length of one viewer session. A walk restarts at a
// random place and zoom level after each, so a run's frames sample the
// whole extent and every zoom level instead of wherever one long walk
// happens to wander.
const sessionSteps = 16

// walk is one client's seeded random walk of pans and zooms, with the
// viewport side between 1% and 25% of the extent.
type walk struct {
	rng    *rand.Rand
	ext    geom.Envelope
	cx, cy float64
	side   float64
	steps  int
}

func newWalk(ext geom.Envelope, seed int64) *walk {
	return &walk{rng: rand.New(rand.NewSource(seed)), ext: ext}
}

func (w *walk) minSide() float64 { return 0.01 * w.ext.Width() }
func (w *walk) maxSide() float64 { return 0.25 * w.ext.Width() }

// next moves the viewport one step: a zoom by up to 2x either way (a
// third of the steps) or a pan by up to half a viewport side. The first
// step of a session jumps to a random viewport.
func (w *walk) next() viewport {
	if w.steps%sessionSteps == 0 {
		w.side = w.minSide() * math.Pow(w.maxSide()/w.minSide(), w.rng.Float64())
		w.cx = w.ext.MinX + w.rng.Float64()*w.ext.Width()
		w.cy = w.ext.MinY + w.rng.Float64()*w.ext.Height()
	} else if w.rng.Float64() < 1.0/3 {
		w.side *= math.Exp2(2*w.rng.Float64() - 1)
		w.side = math.Max(w.minSide(), math.Min(w.maxSide(), w.side))
	} else {
		w.cx += (2*w.rng.Float64() - 1) * w.side / 2
		w.cy += (2*w.rng.Float64() - 1) * w.side / 2
	}
	w.steps++
	h := w.side / 2
	w.cx = math.Max(w.ext.MinX+h, math.Min(w.ext.MaxX-h, w.cx))
	w.cy = math.Max(w.ext.MinY+h, math.Min(w.ext.MaxY-h, w.cy))
	return viewport{
		env:   geom.NewEnvelope(w.cx-h, w.cy-h, w.cx+h, w.cy+h),
		class: thematicClasses[w.rng.Intn(len(thematicClasses))],
	}
}

// table is a result as rows of JSON-native values: float64 or nil.
type table [][]any

// fromResult converts an in-process result to the same form the server
// encodes.
func fromResult(r *sql.Result) table {
	t := make(table, len(r.Rows))
	for i, row := range r.Rows {
		t[i] = make([]any, len(row))
		for j, v := range row {
			switch v.Kind {
			case sql.KindNum:
				t[i][j] = v.Num
			case sql.KindNull:
				t[i][j] = nil
			default:
				t[i][j] = v.String()
			}
		}
	}
	return t
}

// errRefused marks an overload answer (HTTP 503).
var errRefused = fmt.Errorf("refused (503)")

// httpFrame runs a frame through the serving layer and returns the three
// response bodies and their total size. A traced frame also runs each
// statement in-process on the server's executor: the twin that splits
// server time from sql time.
func (b *bench) httpFrame(v viewport, tr *tracer, root int32) ([3][]byte, int, error) {
	var out [3][]byte
	n := 0
	for i, q := range v.statements() {
		start := time.Now()
		resp, err := b.client.Get(b.base + url.QueryEscape(q))
		if err != nil {
			return out, n, err
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		d := time.Since(start)
		n += len(body)
		if err != nil {
			return out, n, err
		}
		switch {
		case resp.StatusCode == http.StatusServiceUnavailable:
			return out, n, errRefused
		case resp.StatusCode != http.StatusOK:
			return out, n, fmt.Errorf("HTTP %d: %s", resp.StatusCode, body)
		}
		out[i] = body
		if tr != nil {
			tr.span(root, root, "server.request", start, d, q, 0, len(body))
			if _, err := b.tracedQuery(b.exec, q, tr, root); err != nil {
				return out, n, err
			}
		}
	}
	return out, n, nil
}

// decodeFrame parses the rows of three /query response bodies.
func decodeFrame(bodies [3][]byte) ([3]table, error) {
	var out [3]table
	for i, body := range bodies {
		var r struct {
			Rows table `json:"rows"`
		}
		if err := json.Unmarshal(body, &r); err != nil {
			return out, err
		}
		out[i] = r.Rows
	}
	return out, nil
}

// localFrame runs a frame in-process on the workload's executor.
func (b *bench) localFrame(v viewport, tr *tracer, root int32) ([3]*sql.Result, error) {
	var out [3]*sql.Result
	for i, q := range v.statements() {
		var err error
		if tr != nil {
			out[i], err = b.tracedQuery(b.exec, q, tr, root)
		} else {
			out[i], err = b.exec.QueryUntraced(q)
		}
		if err != nil {
			return out, err
		}
	}
	return out, nil
}

// tracedQuery runs one statement with the EXPLAIN trace on and records it
// as a sql.query span whose children are the returned steps. A statement
// the cache planned cold is also prepared on a scratch executor to time
// Prepare on its own.
func (b *bench) tracedQuery(e *sql.Executor, q string, tr *tracer, parent int32) (*sql.Result, error) {
	start := time.Now()
	res, err := e.Query(q)
	d := time.Since(start)
	if err != nil {
		return nil, err
	}
	id := tr.span(parent, parent, "sql.query", start, d, q, 0, len(res.Rows))
	tr.steps(parent, id, start, res.Explain)
	if res.Explain != nil && len(res.Explain.Steps) > 0 && res.Explain.Steps[0].Detail == "planned (cold prepare)" {
		ps := time.Now()
		if _, err := sql.New(b.db).Prepare(q); err != nil {
			return nil, err
		}
		tr.span(parent, parent, "sql.prepare", ps, time.Since(ps), "", 0, 0)
	}
	return res, nil
}

// checkFrame compares a frame's answers with a brute-force pass over the
// point cloud's columns. It returns nil when all three answers match.
func checkFrame(pc *engine.PointCloud, v viewport, got [3]table) error {
	xs, ys, zs := pc.X(), pc.Y(), pc.Z()
	cls := pc.Column("classification")
	type hist struct {
		n      int
		lo, hi float64
	}
	groups := map[float64]*hist{}
	count, sum := 0, 0.0
	matched := map[[4]float64]int{}
	total := 0
	for r := range xs {
		if !v.env.ContainsPoint(xs[r], ys[r]) {
			continue
		}
		c, z := cls.Value(r), zs[r]
		h := groups[c]
		if h == nil {
			h = &hist{lo: math.Inf(1), hi: math.Inf(-1)}
			groups[c] = h
		}
		h.n++
		if z < h.lo {
			h.lo = z
		}
		if z > h.hi {
			h.hi = z
		}
		if c == float64(v.class) {
			count++
			sum += z
		}
		matched[[4]float64{xs[r], ys[r], z, c}]++
		total++
	}

	// Thematic count and average.
	if len(got[0]) != 1 || len(got[0][0]) != 2 {
		return fmt.Errorf("thematic: want 1 row of 2 values, got %v", got[0])
	}
	if n, ok := got[0][0][0].(float64); !ok || int(n) != count {
		return fmt.Errorf("thematic count: want %d, got %v", count, got[0][0][0])
	}
	avg := got[0][0][1]
	if count == 0 {
		if avg != nil {
			return fmt.Errorf("thematic avg: want NULL, got %v", avg)
		}
	} else if a, ok := avg.(float64); !ok || !approxEqual(a, sum/float64(count)) {
		return fmt.Errorf("thematic avg: want %v, got %v", sum/float64(count), avg)
	}

	// Histogram, in ascending class order.
	keys := make([]float64, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Float64s(keys)
	if len(got[1]) != len(keys) {
		return fmt.Errorf("histogram: want %d groups, got %d", len(keys), len(got[1]))
	}
	for i, k := range keys {
		h := groups[k]
		want := []any{k, float64(h.n), h.lo, h.hi}
		if !equalRow(got[1][i], want) {
			return fmt.Errorf("histogram row %d: want %v, got %v", i, want, got[1][i])
		}
	}

	// Sample: min(limit, matches) rows, each a distinct matching point.
	if want := min(sampleLimit, total); len(got[2]) != want {
		return fmt.Errorf("sample: want %d rows, got %d", want, len(got[2]))
	}
	for i, row := range got[2] {
		var key [4]float64
		if len(row) != 4 {
			return fmt.Errorf("sample row %d: want 4 values, got %v", i, row)
		}
		for j := range key {
			f, ok := row[j].(float64)
			if !ok {
				return fmt.Errorf("sample row %d: non-numeric %v", i, row)
			}
			key[j] = f
		}
		if matched[key] == 0 {
			return fmt.Errorf("sample row %d: %v is not a matching point", i, row)
		}
		matched[key]--
	}
	return nil
}

// approxEqual compares a float sum computed in a possibly different order.
func approxEqual(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b))
}

func equalRow(got, want []any) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}
