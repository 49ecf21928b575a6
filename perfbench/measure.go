package main

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"

	"gisnav/internal/engine"
	"gisnav/internal/pyramid"
	"gisnav/internal/server"
	"gisnav/internal/sql"
)

const (
	// appendEvery is how many ingest frames run between two appends.
	appendEvery = 25
	// probeAppends is how many appends the navigate and analyst runs make
	// after their timed window, each followed by a fresh frame.
	probeAppends = 32
	// checkFrames and checkStmts size the answer-check sample.
	checkFrames = 12
	checkStmts  = 40
)

// window is one timed closed-loop run.
type window struct {
	start, end time.Time
	lat        []time.Duration // completed ops: frames or statements
	at         []time.Time     // their start times
	attempted  int
	failed     int
	refused    int
	firstErr   error
	appends    []time.Duration // ingest: AppendLAS calls
	fresh      []time.Duration // ingest: first frame after each append
	respBytes  int64
	classTime  map[string]time.Duration // analyst: time per statement class
	classOps   map[string]int
}

func (w *window) record(start time.Time, d time.Duration, err error) {
	w.attempted++
	if err == nil {
		w.lat = append(w.lat, d)
		w.at = append(w.at, start)
		return
	}
	w.failed++
	if errors.Is(err, errRefused) {
		w.refused++
	}
	if w.firstErr == nil {
		w.firstErr = err
	}
}

func (w *window) wall() time.Duration { return w.end.Sub(w.start) }

// subWindows is how many equal slices of the window the latency and
// throughput figures are taken over; each figure is the median of the
// slices'. Load from other tenants of a shared machine comes in bursts of
// seconds, and the median discards a slice it hit.
const subWindows = 3

// opStats are the window's latency percentiles (ms) and throughput
// (completed ops per second), each the median over its sub-windows.
type opStats struct {
	p50, p99, opsPerSec float64
	perSlice            []int // completed ops per sub-window
}

func (w *window) stats() opStats {
	var p50s, p99s, rates []float64
	var st opStats
	slice := w.wall() / subWindows
	for i := 0; i < subWindows; i++ {
		from, to := w.start.Add(time.Duration(i)*slice), w.start.Add(time.Duration(i+1)*slice)
		if i == subWindows-1 {
			to = w.end
		}
		var lat []time.Duration
		for j, at := range w.at {
			if !at.Before(from) && at.Before(to) {
				lat = append(lat, w.lat[j])
			}
		}
		ms := millis(lat)
		p50s = append(p50s, quantile(ms, 0.5))
		p99s = append(p99s, quantile(ms, 0.99))
		rates = append(rates, float64(len(lat))/to.Sub(from).Seconds())
		st.perSlice = append(st.perSlice, len(lat))
	}
	st.p50, st.p99, st.opsPerSec = quantile(p50s, 0.5), quantile(p99s, 0.5), quantile(rates, 0.5)
	return st
}

// window runs the workload's clients until the deadline passes.
func (b *bench) window(d time.Duration, tr *tracer) *window {
	start := time.Now()
	deadline := start.Add(d)
	var w *window
	switch b.cfg.workload {
	case "navigate":
		w = b.navigateWindow(deadline, tr)
	case "analyst":
		w = b.analystWindow(deadline, tr)
	default:
		w = b.ingestWindow(deadline, tr)
	}
	w.start, w.end = start, time.Now()
	return w
}

// navigateWindow runs b.clients closed-loop HTTP clients, each on its own
// random walk.
func (b *bench) navigateWindow(deadline time.Time, tr *tracer) *window {
	parts := make([]*window, b.clients)
	var wg sync.WaitGroup
	for c := range parts {
		parts[c] = &window{}
		wg.Add(1)
		go func(w *window, walk *walk) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				v := walk.next()
				var root int32
				if tr != nil {
					root = tr.newTrace()
				}
				start := time.Now()
				_, n, err := b.httpFrame(v, tr, root)
				d := time.Since(start)
				if tr != nil {
					tr.root(root, "frame", start, d)
				}
				w.record(start, d, err)
				w.respBytes += int64(n)
			}
		}(parts[c], b.walks[c])
	}
	wg.Wait()
	w := &window{}
	for _, p := range parts {
		w.lat = append(w.lat, p.lat...)
		w.at = append(w.at, p.at...)
		w.attempted += p.attempted
		w.failed += p.failed
		w.refused += p.refused
		w.respBytes += p.respBytes
		if w.firstErr == nil {
			w.firstErr = p.firstErr
		}
	}
	return w
}

// analystWindow runs one client issuing generated statements.
func (b *bench) analystWindow(deadline time.Time, tr *tracer) *window {
	w := &window{classTime: map[string]time.Duration{}, classOps: map[string]int{}}
	for time.Now().Before(deadline) {
		st := b.gen.next()
		start := time.Now()
		var err error
		if tr != nil {
			root := tr.newTrace()
			_, err = b.tracedQuery(b.exec, st.sql, tr, root)
			tr.root(root, "statement", start, time.Since(start))
		} else {
			_, err = b.exec.QueryUntraced(st.sql)
		}
		d := time.Since(start)
		w.record(start, d, err)
		w.classTime[st.class] += d
		w.classOps[st.class]++
	}
	return w
}

// ingestWindow runs one in-process client: navigate-style frames with an
// appended flight strip every appendEvery frames.
func (b *bench) ingestWindow(deadline time.Time, tr *tracer) *window {
	w := &window{}
	for time.Now().Before(deadline) {
		fresh := false
		if b.sinceAppend >= appendEvery {
			w.appends = append(w.appends, b.appendStrip(tr))
			w.attempted++
			b.sinceAppend = 0
			fresh = true
		}
		v := b.walks[0].next()
		var root int32
		if tr != nil {
			root = tr.newTrace()
		}
		start := time.Now()
		_, err := b.localFrame(v, tr, root)
		d := time.Since(start)
		if tr != nil {
			tr.root(root, "frame", start, d)
		}
		w.record(start, d, err)
		if fresh && err == nil {
			w.fresh = append(w.fresh, d)
		}
		b.sinceAppend++
	}
	return w
}

// appendStrip appends the next flight strip and returns the call's time.
// Appends need exclusion from queries: callers hold no frame in flight.
func (b *bench) appendStrip(tr *tracer) time.Duration {
	strip := b.nextStrip()
	start := time.Now()
	b.pc.AppendLAS(strip)
	d := time.Since(start)
	if tr != nil {
		id := tr.newTrace()
		tr.root(id, "AppendLAS", start, d)
	}
	return d
}

// snapshot is the public counters of every layer at one instant, taken
// with no operation in flight.
type snapshot struct {
	at          time.Time
	stmt        sql.StmtCacheStats
	exec        sql.ExecStats
	plan        engine.PlanCacheStats
	pyr         pyramid.Stats
	srvRequests uint64
	srvShed     uint64
	rows        int
	outstanding int64
	poolFree    uint64 // bytes of free buffers the engine pools retain
	heapInuse   uint64
	allocBytes  uint64
	allocObjs   uint64
	gcCPU       float64
	totalCPU    float64
	idleCPU     float64
	procCPU     time.Duration
}

var rtSamples = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

// snapshot forces a GC (so HeapInuse is the live heap and the runtime's
// CPU estimates are current) and reads every counter.
func (b *bench) snapshot() snapshot {
	runtime.GC()
	s := snapshot{
		at:   time.Now(),
		rows: b.pc.Len(),
		stmt: b.exec.StmtCacheStats(),
		exec: b.exec.ExecStats(),
		plan: b.pc.PlanCacheStats(),
		pyr:  pyramid.Snapshot(),
	}
	if b.srv != nil {
		st := b.srv.Stats()
		s.srvRequests = st.Requests
		s.srvShed = st.Errors[server.CodeOverloaded]
	}
	sel, rng, f64 := engine.SelectionPoolStats(), engine.RangePoolStats(), engine.F64PoolStats()
	s.outstanding = sel.Outstanding + rng.Outstanding + f64.Outstanding
	s.poolFree = uint64(8*sel.FreeElts + 16*rng.FreeElts + 8*f64.FreeElts)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.heapInuse = ms.HeapInuse

	samples := make([]metrics.Sample, len(rtSamples))
	for i, n := range rtSamples {
		samples[i].Name = n
	}
	metrics.Read(samples)
	s.allocBytes = samples[0].Value.Uint64()
	s.allocObjs = samples[1].Value.Uint64()
	s.gcCPU = samples[2].Value.Float64()
	s.totalCPU = samples[3].Value.Float64()
	s.idleCPU = samples[4].Value.Float64()

	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		s.procCPU = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	return s
}

// liveHeapMiB is the heap in use less the free buffers parked in the
// engine pools: how many are parked depends on the order of past requests.
func (s snapshot) liveHeapMiB() float64 {
	return float64(s.heapInuse-s.poolFree) / (1 << 20)
}

// histogramPyramidBuffers is how many pooled buffers the pyramid cache
// legitimately holds for the frame histogram's shape over a table of n
// rows. pyramid.newPyramid draws, per level, a count bank, one bank per
// value aggregate (min(z) and max(z)), a row-total array and four bbox
// arrays from the f64 pool, plus two row-id buffers; there is one level
// per order up to the base order, the finest tiling of orders 2..5 whose
// tiles still average 1024 rows. An append that crosses a tiling
// threshold therefore moves the gauges without leaking anything.
func histogramPyramidBuffers(n int) int64 {
	order := 2
	for order < 5 && (1<<(2*(order+1)))*1024 <= n {
		order++
	}
	return int64(order+1)*(1+2+1+4) + 2
}

// poolDrift is the change of the pools' outstanding gauges between two
// quiescent snapshots, less the change of what the resident frame-histogram
// pyramid owns.
func poolDrift(a, b snapshot) int64 {
	d := b.outstanding - a.outstanding
	if a.pyr.Pyramids > 0 && a.pyr.Pyramids == b.pyr.Pyramids {
		d -= histogramPyramidBuffers(b.rows) - histogramPyramidBuffers(a.rows)
	}
	return d
}

// result is everything measured after set-up.
type result struct {
	main     *window // untraced: the whole window, or its first half
	traced   *window // --trace 1: the second, traced half
	tr       *tracer
	s0, s1   snapshot // around main
	sEnd     snapshot // after the last window
	storage  engine.StorageReport
	appends  []time.Duration // untraced window, then write probe
	fresh    []time.Duration // first frames after those appends
	checked  int
	wrong    int
	wrongMsg []string

	// Ops outside the timed windows: write-probe appends and frames and
	// the checked sample. A wrong answer counts as a failed op.
	attempted, failed int
}

// measure runs the timed window (or the untraced and traced halves), the
// post-window write probe and the answer check.
func (b *bench) measure() (*result, error) {
	for c := 0; c < b.clients; c++ {
		b.walks = append(b.walks, newWalk(b.in.region, int64(b.cfg.seed)*131+int64(c)))
	}
	b.gen = newStmtGen(b.in.region, int64(b.cfg.seed)*7+3)

	r := &result{storage: b.db.Storage()}
	run := time.Duration(b.cfg.seconds) * time.Second
	r.s0 = b.snapshot()
	if !b.cfg.trace {
		r.main = b.window(run, nil)
		r.s1 = b.snapshot()
		r.sEnd = r.s1
	} else {
		r.main = b.window(run/2, nil)
		r.s1 = b.snapshot()
		r.tr = newTracer()
		r.traced = b.window(run-run/2, r.tr)
		r.sEnd = b.snapshot()
	}
	r.appends = append(r.appends, r.main.appends...)
	r.fresh = append(r.fresh, r.main.fresh...)
	if b.cfg.workload != "ingest" {
		b.writeProbe(r)
	}
	if err := b.checkSample(r); err != nil {
		return nil, err
	}
	return r, nil
}

// writeProbe gives navigate and analyst their append and fresh-frame
// figures: after the timed window, append a strip and time the next
// frame, probeAppends times. The frames' answers are checked.
func (b *bench) writeProbe(r *result) {
	walk := newWalk(b.in.region, int64(b.cfg.seed)^0x9e37)
	for i := 0; i < probeAppends; i++ {
		r.appends = append(r.appends, b.appendStrip(nil))
		v := walk.next()
		start := time.Now()
		got, err := b.frame(v)
		d := time.Since(start)
		r.attempted += 2
		if err != nil {
			r.failed++
			continue
		}
		r.fresh = append(r.fresh, d)
		b.checkOne(r, v, got)
	}
}

// frame runs one untraced frame through the workload's front door and
// returns its answers.
func (b *bench) frame(v viewport) ([3]table, error) {
	var out [3]table
	if b.srv != nil {
		bodies, _, err := b.httpFrame(v, nil, 0)
		if err != nil {
			return out, err
		}
		return decodeFrame(bodies)
	}
	res, err := b.localFrame(v, nil, 0)
	if err != nil {
		return out, err
	}
	for i, r := range res {
		out[i] = fromResult(r)
	}
	return out, nil
}

func (b *bench) checkOne(r *result, v viewport, got [3]table) {
	r.checked++
	if err := checkFrame(b.pc, v, got); err != nil {
		r.wrong++
		r.failed++
		r.wrongMsg = append(r.wrongMsg, fmt.Sprintf("frame %v class %d: %v", v.env, v.class, err))
	}
}

// checkSample checks a seeded sample of operations outside the timed
// window: frames against a brute-force pass over the columns, analyst
// statements against a parallelism-1 executor.
func (b *bench) checkSample(r *result) error {
	if b.cfg.workload == "analyst" {
		gen := newStmtGen(b.in.region, int64(b.cfg.seed)^0xc4ec)
		for i := 0; i < checkStmts; i++ {
			st := gen.next()
			got, err := b.exec.QueryUntraced(st.sql)
			if err != nil {
				return fmt.Errorf("check %q: %w", st.sql, err)
			}
			want, err := b.ref.QueryUntraced(st.sql)
			if err != nil {
				return fmt.Errorf("check reference %q: %w", st.sql, err)
			}
			r.checked++
			r.attempted++
			if err := sameResult(got, want); err != nil {
				r.wrong++
				r.failed++
				r.wrongMsg = append(r.wrongMsg, fmt.Sprintf("%s: %v", st.sql, err))
			}
		}
		return nil
	}
	walk := newWalk(b.in.region, int64(b.cfg.seed)^0xc4ec)
	for i := 0; i < checkFrames; i++ {
		v := walk.next()
		got, err := b.frame(v)
		if err != nil {
			return fmt.Errorf("check frame: %w", err)
		}
		r.attempted++
		b.checkOne(r, v, got)
	}
	return nil
}
