package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"time"

	"gisnav/internal/dataset"
	"gisnav/internal/engine"
	"gisnav/internal/geom"
	"gisnav/internal/las"
	"gisnav/internal/server"
	"gisnav/internal/sql"
	"gisnav/internal/synth"
)

const (
	// extraSetups is how many additional set-ups child processes time,
	// so setup_s is the median of extraSetups+1 samples.
	extraSetups = 2
	// numStrips flight strips are generated per run; ingest cycles
	// through them when a run appends more.
	numStrips = 64
	// Each strip is the first stripPoints points of a stripW × stripH
	// metre flight line, which holds more at the dataset density, so
	// every append moves the same number of points.
	stripPoints    = 2000
	stripW, stripH = 400, 80
)

// datasetParams are the "medium" generator parameters: 3000 m × 3000 m,
// 4×4 tiles, 0.1 points/m² (~1.08M points). The generator treats seed 0
// as "default", so the benchmark seed is offset by one.
func datasetParams(seed uint64) dataset.Params {
	return dataset.Params{
		Region: geom.NewEnvelope(0, 0, 3000, 3000),
		TilesX: 4, TilesY: 4, Density: 0.1, UACells: 40,
		Seed: seed + 1,
	}
}

// inputs are the generated files and append batches of one run. Their
// generation is not part of setup_s.
type inputs struct {
	dir    string
	info   dataset.Info
	region geom.Envelope
	strips [][]las.Point
}

func generateInputs(cfg config) (*inputs, error) {
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.work, "data-")
	if err != nil {
		return nil, err
	}
	in, err := generateInto(dir, cfg.seed)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	return in, nil
}

// generateInto writes the dataset for seed into dir and builds the
// append batches.
func generateInto(dir string, seed uint64) (*inputs, error) {
	p := datasetParams(seed)
	info, err := dataset.Generate(dir, p)
	if err != nil {
		return nil, err
	}
	in := &inputs{dir: dir, info: info, region: p.Region}
	terrain := synth.NewTerrain(p.Seed, p.Region)
	rng := rand.New(rand.NewSource(int64(seed)*7919 + 17))
	for i := 0; i < numStrips; i++ {
		w, h := float64(stripW), float64(stripH)
		if i%2 == 1 {
			w, h = h, w
		}
		x := p.Region.MinX + rng.Float64()*(p.Region.Width()-w)
		y := p.Region.MinY + rng.Float64()*(p.Region.Height()-h)
		pts := synth.GenerateTile(terrain, synth.TileSpec{
			Env:      geom.NewEnvelope(x, y, x+w, y+h),
			Density:  p.Density,
			Seed:     p.Seed*1000 + uint64(i),
			SourceID: uint16(500 + i),
		})
		if len(pts) < stripPoints {
			return nil, fmt.Errorf("flight strip %d has %d points, want %d", i, len(pts), stripPoints)
		}
		in.strips = append(in.strips, pts[:stripPoints])
	}
	return in, nil
}

// setupTimes is one timed set-up: from opening the generated dataset to
// the first timed operation.
type setupTimes struct {
	TotalS     float64 `json:"total_s"`
	LoadS      float64 `json:"load_s"`
	ImprintsMs float64 `json:"imprints_ms"`
	Points     int     `json:"points"`
}

// bench is one set-up workload: the loaded catalog and whatever serves it.
type bench struct {
	cfg     config
	in      *inputs
	db      *engine.DB
	pc      *engine.PointCloud
	exec    *sql.Executor // the executor under test
	ref     *sql.Executor // analyst: parallelism-1 reference executor
	clients int

	// navigate only.
	srv    *server.Server
	hs     *http.Server
	served chan error
	client *http.Client
	base   string

	setup      setupTimes
	setupTrace *tracer // traced warm-up frame: index and pyramid builds

	// Workload state that carries from one window into the next.
	walks       []*walk // one per client
	gen         *stmtGen
	stripNext   int
	sinceAppend int
}

// setup loads the dataset and brings the workload to its first timed
// operation: imprints built, server listening, caches warm.
func setup(cfg config, in *inputs) (*bench, error) {
	tr := newTracer()
	start := time.Now()
	db, _, err := dataset.Load(in.dir)
	if err != nil {
		return nil, err
	}
	load := time.Since(start)
	tr.root(tr.newTrace(), "dataset.Load", start, load)
	pc, err := db.PointCloud(dataset.TableCloud)
	if err != nil {
		return nil, err
	}
	impStart := time.Now()
	imp := pc.EnsureImprints()
	tr.root(tr.newTrace(), "EnsureImprints", impStart, time.Since(impStart))
	b := &bench{cfg: cfg, in: in, db: db, pc: pc, clients: 1, setupTrace: tr}
	switch cfg.workload {
	case "navigate":
		// Clients and server share this process: half the CPUs run
		// clients so the handlers are not starved by them. With as many
		// clients as CPUs, frame latency of one seed swung by a third
		// between runs on a 2-CPU machine; with one it held within 8%.
		b.clients = max(1, runtime.NumCPU()/2)
		if err := b.startServer(); err != nil {
			return nil, err
		}
	case "analyst":
		b.exec = sql.New(db)
		b.exec.SetParallelism(runtime.NumCPU())
		b.ref = sql.New(db)
		b.ref.SetParallelism(1)
	case "ingest":
		b.exec = sql.New(db)
	}
	if err := b.warmUp(); err != nil {
		b.close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	b.setup = setupTimes{
		TotalS:     time.Since(start).Seconds(),
		LoadS:      load.Seconds(),
		ImprintsMs: float64(imp) / float64(time.Millisecond),
		Points:     pc.Len(),
	}
	return b, nil
}

func (b *bench) startServer() error {
	b.srv = server.New(server.Config{DB: b.db})
	b.exec = b.srv.Exec()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	b.hs = b.srv.HTTPServer(ln.Addr().String())
	b.served = make(chan error, 1)
	go func() { b.served <- b.hs.Serve(ln) }()
	b.client = &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: 2 * b.clients},
		Timeout:   30 * time.Second,
	}
	b.base = "http://" + ln.Addr().String() + "/query?q="
	return nil
}

// warmUp fills the caches a long-running session would have warm: one
// traced in-process frame (it records the pyramid build), then a short
// untraced walk per client.
func (b *bench) warmUp() error {
	seed := int64(b.cfg.seed) ^ 0x5eed
	switch b.cfg.workload {
	case "analyst":
		gen := newStmtGen(b.in.region, seed)
		for i := 0; i < 24; i++ {
			if _, err := b.exec.QueryUntraced(gen.next().sql); err != nil {
				return err
			}
		}
		return nil
	}
	tr := b.setupTrace
	w := newWalk(b.in.region, seed)
	root, start := tr.newTrace(), time.Now()
	if _, err := b.localFrame(w.next(), tr, root); err != nil {
		return err
	}
	tr.root(root, "warmup.frame", start, time.Since(start))
	for c := 0; c < b.clients; c++ {
		for i := 0; i < 12; i++ {
			var err error
			if b.srv != nil {
				_, _, err = b.httpFrame(w.next(), nil, 0)
			} else {
				_, err = b.localFrame(w.next(), nil, 0)
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// close stops the listener and drains the server, waiting for the serve
// goroutine to exit.
func (b *bench) close() {
	if b.hs == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	b.hs.Shutdown(ctx)
	b.srv.Shutdown(ctx)
	<-b.served
	b.client.CloseIdleConnections()
	b.hs = nil
}

// nextStrip returns the next append batch, cycling through the inputs.
func (b *bench) nextStrip() []las.Point {
	s := b.in.strips[b.stripNext%len(b.in.strips)]
	b.stripNext++
	return s
}

// childSetup times one set-up in a fresh process of this binary.
func childSetup(cfg config, dir string, stderr io.Writer) (setupTimes, error) {
	var st setupTimes
	exe, err := os.Executable()
	if err != nil {
		return st, err
	}
	var out bytes.Buffer
	cmd := exec.Command(exe, "--setup-only", "--workload", cfg.workload,
		"--seed", strconv.FormatUint(cfg.seed, 10), "--dir", dir, "--work", cfg.work)
	cmd.Stdout, cmd.Stderr = &out, stderr
	if err := cmd.Run(); err != nil {
		return st, fmt.Errorf("set-up child: %w", err)
	}
	if err := json.Unmarshal(bytes.TrimSpace(out.Bytes()), &st); err != nil {
		return st, fmt.Errorf("set-up child output: %w", err)
	}
	return st, nil
}

// runSetupChild is the child side of childSetup.
func runSetupChild(cfg config, stdout, stderr io.Writer) int {
	in := &inputs{dir: cfg.dir, region: datasetParams(cfg.seed).Region}
	b, err := setup(cfg, in)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench: set-up child:", err)
		return 1
	}
	b.close()
	out, _ := json.Marshal(b.setup)
	fmt.Fprintln(stdout, string(out))
	return 0
}
