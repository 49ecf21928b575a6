package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"testing"
	"time"

	"gisnav/internal/engine"
	"gisnav/internal/geom"
	"gisnav/internal/las"
	"gisnav/internal/sql"
)

// testBench loads n random points into an in-process catalog.
func testBench(t *testing.T, n int) *bench {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	pts := make([]las.Point, n)
	for i := range pts {
		pts[i] = las.Point{
			X: rng.Float64() * 1000, Y: rng.Float64() * 1000, Z: rng.Float64() * 30,
			Classification: uint8(thematicClasses[rng.Intn(len(thematicClasses))]),
			Intensity:      uint16(rng.Intn(1000)), ReturnNumber: 1, NumReturns: 1,
		}
	}
	pc := engine.NewPointCloud()
	pc.AppendLAS(pts)
	db := engine.NewDB()
	db.RegisterPointCloud("ahn2", pc)
	return &bench{db: db, pc: pc, exec: sql.New(db)}
}

func answers(t *testing.T, b *bench, v viewport) [3]table {
	t.Helper()
	res, err := b.localFrame(v, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var out [3]table
	for i, r := range res {
		out[i] = fromResult(r)
	}
	return out
}

func TestCheckFrameAcceptsTheSystemsAnswers(t *testing.T) {
	b := testBench(t, 20000)
	w := newWalk(geom.NewEnvelope(0, 0, 1000, 1000), 7)
	for i := 0; i < 20; i++ {
		v := w.next()
		if err := checkFrame(b.pc, v, answers(t, b, v)); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
	}
}

func TestCheckFrameCatchesCorruptedAnswers(t *testing.T) {
	b := testBench(t, 20000)
	v := viewport{env: geom.NewEnvelope(100, 100, 600, 600), class: 2}
	corruptions := map[string]func(a *[3]table){
		"thematic count": func(a *[3]table) { a[0][0][0] = a[0][0][0].(float64) + 1 },
		"thematic avg":   func(a *[3]table) { a[0][0][1] = a[0][0][1].(float64) * 1.001 },
		"histogram max": func(a *[3]table) {
			row := a[1][len(a[1])-1]
			row[3] = math.Nextafter(row[3].(float64), math.Inf(1))
		},
		"histogram group dropped": func(a *[3]table) { a[1] = a[1][1:] },
		"sample row moved":        func(a *[3]table) { a[2][0][0] = a[2][0][0].(float64) + 1e-6 },
		"sample row repeated":     func(a *[3]table) { a[2][1] = a[2][0] },
		"sample truncated":        func(a *[3]table) { a[2] = a[2][:len(a[2])-1] },
	}
	for name, corrupt := range corruptions {
		got := answers(t, b, v)
		if err := checkFrame(b.pc, v, got); err != nil {
			t.Fatalf("%s: uncorrupted answer rejected: %v", name, err)
		}
		corrupt(&got)
		if err := checkFrame(b.pc, v, got); err == nil {
			t.Errorf("%s: corrupted answer accepted", name)
		}
	}
}

func TestCheckFrameSeesAppendedPoints(t *testing.T) {
	b := testBench(t, 5000)
	v := viewport{env: geom.NewEnvelope(0, 0, 1000, 1000), class: 6}
	stale := answers(t, b, v)
	b.pc.AppendLAS([]las.Point{{X: 500, Y: 500, Z: 1, Classification: 6}})
	if err := checkFrame(b.pc, v, stale); err == nil {
		t.Fatal("answer from before the append accepted after it")
	}
	if err := checkFrame(b.pc, v, answers(t, b, v)); err != nil {
		t.Fatal(err)
	}
}

func TestSameResultIsBitExact(t *testing.T) {
	b := testBench(t, 20000)
	ref := sql.New(b.db)
	ref.SetParallelism(1)
	gen := newStmtGen(geom.NewEnvelope(0, 0, 1000, 1000), 3)
	for i := 0; i < 30; i++ {
		st := gen.next()
		if st.class == "join" {
			continue // the test catalog has no vector tables
		}
		got, err := b.exec.QueryUntraced(st.sql)
		if err != nil {
			t.Fatalf("%s: %v", st.sql, err)
		}
		want, err := ref.QueryUntraced(st.sql)
		if err != nil {
			t.Fatalf("%s: %v", st.sql, err)
		}
		if err := sameResult(got, want); err != nil {
			t.Fatalf("%s: %v", st.sql, err)
		}
		for r, row := range got.Rows {
			for c, val := range row {
				if val.Kind != sql.KindNum {
					continue
				}
				row[c].Num = math.Float64frombits(math.Float64bits(val.Num) ^ 1)
				if sameResult(got, want) == nil {
					t.Fatalf("%s: row %d col %d: one-bit difference accepted", st.sql, r, c)
				}
				row[c] = val
			}
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1)
	}
	if got := quantile(xs, 0.5); got != 500 {
		t.Errorf("p50 = %v, want 500", got)
	}
	if got := quantile(xs, 0.99); got != 990 {
		t.Errorf("p99 = %v, want 990 (10 samples beyond it)", got)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("empty p50 = %v, want 0", got)
	}
}

func TestWindowStatsDiscardOneDisturbedSubWindow(t *testing.T) {
	start := time.Now()
	w := &window{start: start, end: start.Add(3 * time.Second)}
	for i := 0; i < 3000; i++ {
		d := time.Millisecond
		if i < 1000 {
			d = 10 * time.Millisecond // the first second ran slow
		}
		w.record(start.Add(time.Duration(i)*time.Millisecond), d, nil)
	}
	st := w.stats()
	if st.p50 != 1 || st.p99 != 1 || st.opsPerSec != 1000 {
		t.Errorf("stats = %+v, want p50 1 ms, p99 1 ms, 1000 ops/s", st)
	}
}

func TestParDegree(t *testing.T) {
	for detail, want := range map[string]int{
		"z > 5 [par 4]": 4, "max(z)": 1, "[par x]": 1, "dense key classification, 2 aggs [par 2]": 2,
	} {
		if got := parDegree(detail); got != want {
			t.Errorf("parDegree(%q) = %d, want %d", detail, got, want)
		}
	}
}

// TestMetricsMatchBenchmarkJSON pins the metric sets to BENCHMARK.json:
// a run must print exactly its end_to_end metrics untraced and exactly its
// per_layer metrics traced, each with the declared unit.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type decl struct{ Name, Unit string }
	var spec struct {
		EndToEnd []decl `json:"end_to_end"`
		PerLayer []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	w := func() *window { return &window{start: now, end: now.Add(time.Second)} }
	r := &result{main: w(), traced: w(), tr: newTracer()}
	setups := []setupTimes{{TotalS: 1, LoadS: 1, Points: 1}}
	for _, c := range []struct {
		name string
		got  map[string]metric
		want []decl
	}{
		{"end_to_end", endToEnd(r.main, r, setups), spec.EndToEnd},
		{"per_layer", r.perLayer(&bench{setupTrace: newTracer()}, setups, 0), spec.PerLayer},
	} {
		if len(c.got) != len(c.want) {
			t.Errorf("%s: the benchmark prints %d metrics, BENCHMARK.json declares %d", c.name, len(c.got), len(c.want))
		}
		for _, d := range c.want {
			m, ok := c.got[d.Name]
			switch {
			case !ok:
				t.Errorf("%s: %s declared but not printed", c.name, d.Name)
			case m.Unit != d.Unit:
				t.Errorf("%s: %s printed in %q, declared in %q", c.name, d.Name, m.Unit, d.Unit)
			}
		}
	}
}

func TestPoolDriftDiscountsPyramidGrowth(t *testing.T) {
	at := func(rows int, outstanding int64) snapshot {
		s := snapshot{rows: rows, outstanding: outstanding}
		s.pyr.Pyramids = 1
		return s
	}
	// 1,048,576 rows is where the base tiling refines from order 4 to 5,
	// adding one level of eight f64 banks.
	if d := poolDrift(at(1_040_000, 100), at(1_050_000, 108)); d != 0 {
		t.Errorf("drift across a tiling threshold = %d, want 0", d)
	}
	if d := poolDrift(at(1_050_000, 100), at(1_060_000, 101)); d != 1 {
		t.Errorf("leaked buffer: drift = %d, want 1", d)
	}
	if d := poolDrift(snapshot{outstanding: 5}, snapshot{outstanding: 5}); d != 0 {
		t.Errorf("no pyramid: drift = %d, want 0", d)
	}
}
