package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
	"time"
)

// quantile returns the nearest-rank q-quantile of xs (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// endToEnd are the metrics a user of the system sees, from one untraced
// window.
func endToEnd(w *window, r *result, setups []setupTimes) map[string]metric {
	st := w.stats()
	var totals []float64
	for _, s := range setups {
		totals = append(totals, s.TotalS)
	}
	return map[string]metric{
		"setup_s":            {quantile(totals, 0.5), "s"},
		"latency_p50_ms":     {st.p50, "ms"},
		"latency_p99_ms":     {st.p99, "ms"},
		"ops_per_s":          {st.opsPerSec, "1/s"},
		"live_heap_mb":       {r.s0.liveHeapMiB(), "MiB"},
		"append_p50_ms":      {quantile(millis(r.appends), 0.5), "ms"},
		"fresh_frame_p50_ms": {quantile(millis(r.fresh), 0.5), "ms"},
	}
}

// fill computes every metric and the run's verdict into rep.
func (r *result) fill(rep *report, b *bench, setups []setupTimes) {
	for _, w := range []*window{r.main, r.traced} {
		if w == nil {
			continue
		}
		rep.Attempted += w.attempted
		rep.Failed += w.failed
		if w.firstErr != nil {
			rep.notes = append(rep.notes, fmt.Sprintf("%d failed ops (%d refused with 503), the first: %v",
				w.failed, w.refused, w.firstErr))
		}
	}
	rep.Attempted += r.attempted
	rep.Failed += r.failed
	for _, m := range r.wrongMsg {
		rep.notes = append(rep.notes, "WRONG ANSWER: "+m)
	}
	drift := poolDrift(r.s0, r.sEnd)
	rep.endToEnd = endToEnd(r.main, r, setups)

	perSlice := r.main.stats().perSlice
	rep.notes = append(rep.notes, fmt.Sprintf("samples: %d ops in %.2fs, %v per sub-window (latency and ops/s are medians over them), %d appends, %d fresh frames, %d answers checked",
		len(r.main.lat), r.main.wall().Seconds(), perSlice, len(r.appends), len(r.fresh), r.checked))
	for _, s := range []struct {
		when string
		snap snapshot
	}{{"start", r.s0}, {"end", r.s1}} {
		rep.notes = append(rep.notes, fmt.Sprintf("heap in use at the window's %s: %.1f MiB, of which %.1f MiB free buffers parked in the engine pools",
			s.when, float64(s.snap.heapInuse)/(1<<20), float64(s.snap.poolFree)/(1<<20)))
	}
	if slices.Min(perSlice) < 1000 {
		rep.notes = append(rep.notes, "WARNING: fewer than 1000 ops in a sub-window, so its p99 has fewer than 10 samples beyond it")
	}
	if r.main.classOps != nil {
		rep.notes = append(rep.notes, classShares(r.main))
	}

	switch {
	case r.wrong > 0:
		rep.Correct, rep.why = false, fmt.Sprintf("%d of %d checked answers wrong", r.wrong, r.checked)
	case drift != 0:
		rep.Correct, rep.why = false, fmt.Sprintf("pooled buffers outstanding drifted by %d over the workload", drift)
	}
	if b.cfg.trace {
		rep.perLayer = r.perLayer(b, setups, drift)
	}
}

// classShares summarises the analyst mix: each class's share of the
// statements and of the window's time.
func classShares(w *window) string {
	var total time.Duration
	names := make([]string, 0, len(w.classTime))
	for c, d := range w.classTime {
		total += d
		names = append(names, c)
	}
	sort.Strings(names)
	var sb strings.Builder
	sb.WriteString("analyst classes (ops share / time share):")
	for _, c := range names {
		fmt.Fprintf(&sb, " %s %.3f/%.3f", c, ratio(float64(w.classOps[c]), float64(len(w.lat)+w.failed)),
			ratio(float64(w.classTime[c]), float64(total)))
	}
	return sb.String()
}

// perLayer computes the per-layer metrics: spans and steps from the
// traced half, counter deltas from the untraced half.
func (r *result) perLayer(b *bench, setups []setupTimes, drift int64) map[string]metric {
	tr := r.tr
	d0, d1 := r.s0, r.s1
	ops := float64(len(r.main.lat))
	stmts := float64((d1.stmt.Hits + d1.stmt.Misses) - (d0.stmt.Hits + d0.stmt.Misses))
	child := tr.childTime()
	us := func(names ...string) float64 { return quantile(tr.durations(named(names...)), 0.5) }

	// Server self time: each HTTP round trip minus its in-process twin.
	var serverSelf, sqlSelf, pyrQuery, joins []float64
	pending := map[int32]int64{}
	interp, queries := 0, 0
	var examined, qualifying float64
	var parSum, parN float64
	var candidates, refined, refineIn float64
	for i := range tr.spans {
		s := &tr.spans[i]
		switch s.Name {
		case "server.request":
			pending[s.Trace] = s.Dur
		case "sql.query":
			queries++
			sqlSelf = append(sqlSelf, float64(s.Dur-child[s.ID])/1e3)
			if req, ok := pending[s.Trace]; ok && s.Parent == s.Trace {
				serverSelf = append(serverSelf, float64(req-s.Dur)/1e3)
				delete(pending, s.Trace)
			}
		case "group":
			if strings.HasPrefix(s.Detail, "pyramid(") {
				pyrQuery = append(pyrQuery, float64(s.Dur-child[s.ID])/1e3)
			} else {
				examined += float64(s.In)
				qualifying += float64(s.In)
			}
		case "aggregate", "project":
			examined += float64(s.In)
			qualifying += float64(s.In)
		case "grid.refine":
			refined += float64(s.Out)
			refineIn += float64(s.In)
			examined += float64(s.In)
		case "imprints.filter":
			candidates += float64(s.Out)
		case "filter.column", "filter.compiled", "filter.generic", "refine.range", "scan.range":
			examined += float64(s.In)
		case "join.collect":
			joins = append(joins, float64(tr.spans[s.Parent].Dur)/1e3)
		}
		switch s.Name {
		case "filter.column", "aggregate", "group.agg", "tile.agg", "refine.range", "scan.range":
			parSum += float64(parDegree(s.Detail))
			parN++
		}
		if s.Name == "filter.generic" || (s.Name == "group" && strings.HasPrefix(s.Detail, "interpreter")) {
			interp++
		}
	}

	// Builds seen anywhere: set-up, traced window.
	var impBuild []float64
	for _, s := range setups {
		impBuild = append(impBuild, s.ImprintsMs)
	}
	var pyrBuild []float64
	for _, t := range []*tracer{tr, b.setupTrace} {
		for _, x := range t.durations(named("imprints.build")) {
			impBuild = append(impBuild, x/1e3)
		}
		for _, x := range t.durations(named("tile.agg")) {
			pyrBuild = append(pyrBuild, x/1e3)
		}
	}
	var appendUs []float64
	for _, x := range millis(append(r.appends, r.traced.appends...)) {
		appendUs = append(appendUs, x*1e3)
	}
	var loads, loadRate []float64
	for _, s := range setups {
		loads = append(loads, s.LoadS)
		loadRate = append(loadRate, float64(s.Points)/s.LoadS)
	}
	frames := float64(len(r.main.lat))
	fresh := float64(len(r.main.fresh))

	pyrHits := float64(d1.pyr.Hits - d0.pyr.Hits)
	pyrMiss := float64(d1.pyr.Misses - d0.pyr.Misses)
	inner := float64(d1.pyr.InteriorTiles - d0.pyr.InteriorTiles)
	bound := float64(d1.pyr.BoundaryTiles - d0.pyr.BoundaryTiles)
	pyrQueries := float64(d1.pyr.Queries - d0.pyr.Queries)
	planHits := float64(d1.plan.Hits - d0.plan.Hits)
	planMiss := float64(d1.plan.Misses - d0.plan.Misses)
	stmtHits := float64(d1.stmt.Hits - d0.stmt.Hits)
	cpuBusy := (d1.totalCPU - d0.totalCPU) - (d1.idleCPU - d0.idleCPU)
	wall := d1.at.Sub(d0.at).Seconds()

	tSt, uSt := r.traced.stats(), r.main.stats()
	m := map[string]metric{
		"server.request_us_p50":        {us("server.request"), "us"},
		"server.self_us_p50":           {quantile(serverSelf, 0.5), "us"},
		"server.response_bytes_per_op": {ratio(float64(r.main.respBytes), ops), "B"},
		"server.shed_ratio":            {ratio(float64(d1.srvShed-d0.srvShed), float64(d1.srvRequests-d0.srvRequests)), "ratio"},

		"sql.self_us_p50":          {quantile(sqlSelf, 0.5), "us"},
		"sql.prepare_us_p50":       {quantile(append(tr.durations(named("sql.prepare")), b.setupTrace.durations(named("sql.prepare"))...), 0.5), "us"},
		"sql.project_us_p50":       {us("project"), "us"},
		"sql.stmt_cache_hit_ratio": {ratio(stmtHits, stmts), "ratio"},
		"sql.replans":              {float64(d1.stmt.Invalidations - d0.stmt.Invalidations), "count"},
		"sql.admission_shed":       {float64(d1.exec.Shed - d0.exec.Shed), "count"},

		"imprints.build_ms":              {quantile(impBuild, 0.5), "ms"},
		"imprints.filter_us_p50":         {us("imprints.filter"), "us"},
		"imprints.candidates_per_result": {ratio(candidates, refined), "ratio"},

		"grid.refine_us_p50":     {us("grid.refine"), "us"},
		"grid.refine_pass_ratio": {ratio(refined, refineIn), "ratio"},

		"engine.filter_us_p50":                  {us("filter.column", "filter.compiled", "filter.generic"), "us"},
		"engine.aggregate_us_p50":               {us("aggregate"), "us"},
		"engine.group_us_p50":                   {quantile(tr.durations(func(s *span) bool { return s.Name == "group" && !strings.HasPrefix(s.Detail, "pyramid(") }), 0.5), "us"},
		"engine.join_us_p50":                    {quantile(joins, 0.5), "us"},
		"engine.rows_examined_per_row_returned": {ratio(examined, qualifying), "ratio"},
		"engine.plan_cache_hit_ratio":           {ratio(planHits, planHits+planMiss), "ratio"},
		"engine.append_us_p50":                  {quantile(appendUs, 0.5), "us"},
		"engine.pool_outstanding_drift":         {float64(drift), "count"},
		"engine.pool_free_mb":                   {float64(d1.poolFree) / (1 << 20), "MiB"},

		"morsel.parallel_degree_mean": {ratio(parSum, parN), "workers"},

		"pyramid.query_us_p50":            {quantile(pyrQuery, 0.5), "us"},
		"pyramid.build_ms":                {quantile(pyrBuild, 0.5), "ms"},
		"pyramid.hit_ratio":               {ratio(pyrHits, pyrHits+pyrMiss), "ratio"},
		"pyramid.interior_tile_share":     {ratio(inner, inner+bound), "ratio"},
		"pyramid.boundary_rows_per_query": {ratio(float64(d1.pyr.BoundaryRows-d0.pyr.BoundaryRows), pyrQueries), "rows"},

		"dataset.load_s":            {quantile(loads, 0.5), "s"},
		"dataset.load_points_per_s": {quantile(loadRate, 0.5), "points/s"},
		"colstore.bytes_per_point":  {ratio(float64(r.storage.CloudBytes), float64(r.storage.CloudRows)), "B"},

		"runtime.heap_end_mb":        {d1.liveHeapMiB(), "MiB"},
		"runtime.alloc_bytes_per_op": {ratio(float64(d1.allocBytes-d0.allocBytes), ops), "B"},
		"runtime.allocs_per_op":      {ratio(float64(d1.allocObjs-d0.allocObjs), ops), "count"},
		"runtime.gc_cpu_share":       {ratio(d1.gcCPU-d0.gcCPU, cpuBusy), "ratio"},
		"runtime.cpu_util":           {ratio((d1.procCPU - d0.procCPU).Seconds(), wall*float64(runtime.NumCPU())), "ratio"},
		"runtime.cpu_us_per_op":      {ratio(float64((d1.procCPU - d0.procCPU).Microseconds()), ops), "us"},

		"trace.overhead_latency_p50_ms": {tSt.p50 - uSt.p50, "ms"},
		"trace.overhead_latency_p99_ms": {tSt.p99 - uSt.p99, "ms"},
		"trace.overhead_ops_per_s":      {tSt.opsPerSec - uSt.opsPerSec, "1/s"},

		"ops.pyramid_routed_share":  {ratio(pyrQueries, stmts), "ratio"},
		"ops.stmt_cache_miss_share": {ratio(stmts-stmtHits, stmts), "ratio"},
		"ops.fresh_frame_share":     {ratio(fresh, frames), "ratio"},
		"ops.interpreter_share":     {ratio(float64(interp), float64(queries)), "ratio"},
	}
	return m
}

// metadata describes the machine, the build and the inputs of the run.
func (b *bench) metadata() map[string]any {
	return map[string]any{
		"workload":       b.cfg.workload,
		"seed":           b.cfg.seed,
		"seconds":        b.cfg.seconds,
		"trace":          b.cfg.trace,
		"nproc":          runtime.NumCPU(),
		"gomaxprocs":     runtime.GOMAXPROCS(0),
		"go_version":     runtime.Version(),
		"git_commit":     gitCommit(),
		"source_sha256":  sourceDigest(),
		"dataset_points": b.in.info.Points,
		"clients":        b.clients,
	}
}

// gitCommit is the VCS revision stamped into the binary, when it was
// built inside a git work tree.
func gitCommit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

// sourceDigest hashes the Go sources the binary was built from, so runs
// of the same code can be matched where no git metadata exists.
func sourceDigest() string {
	h := sha256.New()
	for _, root := range []string{"go.mod", "internal", "perfbench"} {
		filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !(strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "go.mod")) {
				return nil
			}
			f, err := os.Open(path)
			if err != nil {
				return nil
			}
			defer f.Close()
			fmt.Fprintf(h, "%s\x00", path)
			io.Copy(h, f)
			return nil
		})
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
