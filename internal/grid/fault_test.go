//go:build faultinject

package grid

import (
	"testing"

	"gisnav/internal/colstore"
	"gisnav/internal/faultpoint"
	"gisnav/internal/geom"
)

// Armed-build tests for the parallel refinement pass: a panicking worker
// partition must re-raise exactly once in the caller, recycle every
// partial buffer, and leave the resident worker set able to serve the
// next pass with correct results.

func TestFaultWorkerPanicPropagates(t *testing.T) {
	t.Cleanup(faultpoint.Reset)
	xs, ys := randomCloud(60_000, geom.NewEnvelope(0, 0, 2000, 2000), 41)
	region := GeometryRegion{G: geom.NewEnvelope(200, 200, 1800, 1800).ToPolygon()}
	cand := colstore.FullRange(len(xs))
	serial, _ := Refine(xs, ys, cand, region, Options{})

	// After: 1 lets whichever partition hits first through, so at least
	// one later partition — usually a resident worker's — panics while
	// others are still producing results that must be recycled.
	faultpoint.Arm("grid.refine.partition", faultpoint.Action{Panic: "refine worker poisoned", After: 1})
	_, _, before := partialPool.Stats()
	func() {
		defer func() {
			p := recover()
			if p == nil {
				t.Fatal("armed partition did not re-raise in the caller")
			}
			if s, ok := p.(string); !ok || s != "refine worker poisoned" {
				t.Fatalf("re-raised %v, want the armed panic value", p)
			}
		}()
		RefineParallelInto(xs, ys, cand, region, Options{}, 4, nil)
	}()
	if _, _, after := partialPool.Stats(); after != before {
		t.Fatalf("panicked pass drifted partial pool by %d", after-before)
	}

	// The worker set survives: disarmed, the very next pass is correct.
	faultpoint.Disarm("grid.refine.partition")
	for i := 0; i < 3; i++ {
		par, _ := RefineParallelInto(xs, ys, cand, region, Options{}, 4, nil)
		if !equalInts(serial, par) {
			t.Fatalf("pass %d after recovery: %d rows, serial %d", i, len(par), len(serial))
		}
	}
}

func TestFaultCallerPartitionPanic(t *testing.T) {
	t.Cleanup(faultpoint.Reset)
	xs, ys := randomCloud(50_000, geom.NewEnvelope(0, 0, 1000, 1000), 42)
	region := GeometryRegion{G: geom.NewEnvelope(100, 100, 900, 900).ToPolygon()}
	cand := colstore.FullRange(len(xs))

	// No After: slot 0 runs on the calling goroutine and panics first.
	// Resident workers may also hit the armed point; every partial buffer
	// must still come home.
	faultpoint.Arm("grid.refine.partition", faultpoint.Action{Panic: "caller partition poisoned"})
	_, _, before := partialPool.Stats()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("armed caller partition did not re-raise")
			}
		}()
		RefineParallelInto(xs, ys, cand, region, Options{}, 4, nil)
	}()
	if _, _, after := partialPool.Stats(); after != before {
		t.Fatalf("panicked pass drifted partial pool by %d", after-before)
	}
	faultpoint.Disarm("grid.refine.partition")
	serial, _ := Refine(xs, ys, cand, region, Options{})
	par, _ := RefineParallelInto(xs, ys, cand, region, Options{}, 4, nil)
	if !equalInts(serial, par) {
		t.Fatalf("recovered pass differs: %d vs %d rows", len(par), len(serial))
	}
}
