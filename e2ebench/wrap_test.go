package main

import (
	"bytes"
	"testing"

	"github.com/edge-mar/scatter/internal/core"
	"github.com/edge-mar/scatter/internal/wire"
)

// runClip pushes every clip frame through procs stage by stage, group
// frames at a time. A stage that implements core.BatchHandler gets the
// group in one ProcessBatch call when group > 1; otherwise each frame
// is processed alone. Fast-path answers leave the pipeline at primary.
func runClip(t *testing.T, fx *fixture, procs [wire.NumSteps]core.Processor, group int) []*wire.Frame {
	t.Helper()
	var out []*wire.Frame
	for first := 0; first < clipFrames; first += group {
		var frs []*wire.Frame
		for i := first; i < first+group && i < clipFrames; i++ {
			frs = append(frs, &wire.Frame{
				ClientID: 1, FrameNo: uint64(i + 1), Step: wire.StepPrimary,
				Payload: append([]byte(nil), fx.clip.payloads[i]...),
			})
		}
		for step := wire.Step(0); int(step) < wire.NumSteps; step++ {
			var at []*wire.Frame
			for _, fr := range frs {
				if fr.Step == step {
					at = append(at, fr)
				}
			}
			if len(at) == 0 {
				continue
			}
			if bh, ok := procs[step].(core.BatchHandler); ok && group > 1 {
				for i, err := range bh.ProcessBatch(at) {
					if err != nil {
						t.Fatalf("%s batch frame %d: %v", step, at[i].FrameNo, err)
					}
				}
				continue
			}
			for _, fr := range at {
				if err := procs[step].Process(fr); err != nil {
					t.Fatalf("%s frame %d: %v", step, fr.FrameNo, err)
				}
			}
		}
		out = append(out, frs...)
	}
	return out
}

// TestTimedProcessorsMatchPlain checks that the traced run measures the
// same program as the end-to-end run: wrapping the processors in the
// benchmark's timers keeps every BatchHandler, and the clip's frames
// leave the wrapped pipeline with byte-identical payloads and steps, on
// the per-frame path, the batched path, and with the fast path wired.
func TestTimedProcessorsMatchPlain(t *testing.T) {
	fx, err := newFixture()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name     string
		fastPath bool
		group    int
	}{
		{"per-frame", false, 1},
		{"batched", false, 4},
		{"fast-path", true, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			plain, _, _ := buildProcessors(fx.model, tc.fastPath)
			inner, gate, _ := buildProcessors(fx.model, tc.fastPath)
			var wrapped [wire.NumSteps]core.Processor
			var timers [wire.NumSteps]*procTimer
			for step := range inner {
				wrapped[step], timers[step] = timeProcessor(inner[step])
				_, innerBatch := inner[step].(core.BatchHandler)
				_, wrappedBatch := wrapped[step].(core.BatchHandler)
				if innerBatch != wrappedBatch {
					t.Errorf("%s: inner BatchHandler %v, wrapped %v", wire.Step(step), innerBatch, wrappedBatch)
				}
			}
			want := runClip(t, fx, plain, tc.group)
			got := runClip(t, fx, wrapped, tc.group)
			for i := range want {
				if got[i].Step != want[i].Step || !bytes.Equal(got[i].Payload, want[i].Payload) {
					t.Fatalf("frame %d: wrapped step %s (%d bytes), plain step %s (%d bytes)",
						want[i].FrameNo, got[i].Step, len(got[i].Payload), want[i].Step, len(want[i].Payload))
				}
				if want[i].Step != wire.StepDone {
					t.Fatalf("frame %d ended at %s", want[i].FrameNo, want[i].Step)
				}
			}
			if n := len(timers[wire.StepPrimary].calls); n != clipFrames {
				t.Errorf("primary timer saw %d frames, want %d", n, clipFrames)
			}
			if tc.fastPath && gate.Skips() == 0 {
				t.Error("fast path never answered a frame; the wired gate went unexercised")
			}
		})
	}
}
