package main

import (
	"fmt"
	"io"
	"log/slog"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/edge-mar/scatter/internal/agent"
	"github.com/edge-mar/scatter/internal/core"
	"github.com/edge-mar/scatter/internal/trace"
	"github.com/edge-mar/scatter/internal/transport"
	"github.com/edge-mar/scatter/internal/vision/match"
	"github.com/edge-mar/scatter/internal/wire"
)

// The clip is the paper's 720p stream; primary reduces it to the
// 320×180 analysis resolution the model is trained at.
const (
	clipW, clipH         = 1280, 720
	analysisW, analysisH = 320, 180
	// clipFrames distinct frames are pre-rendered (a 720p frame takes
	// ~35 ms to render, far too slow to do while streaming) and played
	// forwards then backwards, so the camera path stays continuous.
	clipFrames = 32
	clipFPS    = 30
	// scene is the trace seed of the rendered scene and its reference
	// images: 7, the repository's canonical scene (scatter-node's default
	// train_seed and the core recognition-quality test's clip). It is
	// fixed because recognizability, and with it the fast path's skip
	// rate, differs several-fold between scenes (NOTES.md); the
	// benchmark's --seed varies where each client enters the clip loop
	// and the second client's phase instead.
	scene = 7
)

// poseFloor is the lowest pose_hit_ratio a correct run may report. The
// recognition-quality test of the core package requires each of the
// monitor and keyboard alone in half the frames; the benchmark requires
// both in the same frame, in most frames.
const poseFloor = 0.5

// clip is the pre-rendered input stream and its ground truth.
type clip struct {
	payloads [][]byte            // encoded primary payload per clip frame
	truth    [][]trace.Placement // per clip frame, in analysis coordinates
}

// renderClip pre-renders the first clipFrames frames of the 720p clip on
// every core.
func renderClip(gen *trace.Generator) *clip {
	c := &clip{payloads: make([][]byte, clipFrames), truth: make([][]trace.Placement, clipFrames)}
	scale := float64(analysisW) / clipW
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < clipFrames; i = int(next.Add(1) - 1) {
				img := gen.GrayFrame(i)
				c.payloads[i] = (&core.Payload{Image: core.GrayToPayload(img)}).Encode()
				gt := gen.GroundTruth(i)
				for j := range gt {
					gt[j].Scale *= scale
					gt[j].OffX *= scale
					gt[j].OffY *= scale
				}
				c.truth[i] = gt
			}
		}()
	}
	wg.Wait()
	return c
}

// clipPeriod is the length of the forwards-backwards clip loop.
const clipPeriod = 2 * (clipFrames - 1)

// clipIndex maps loop position i onto a clip frame.
func clipIndex(i int) int {
	k := i % clipPeriod
	if k >= clipFrames {
		k = clipPeriod - k
	}
	return k
}

// poseHit reports whether every visible monitor and keyboard of clip
// frame k is localized with IoU > 0.3, scored like the core package's
// recognition-quality test.
func poseHit(c *clip, k int, dets []core.Detection, refSize map[int32][2]float64) bool {
	for _, id := range []int{trace.ObjectMonitor, trace.ObjectKeyboard} {
		p := c.truth[k][id]
		if !p.Visible {
			continue
		}
		size := refSize[int32(id)]
		truth := match.BoundingBox{
			MinX: p.OffX, MinY: p.OffY,
			MaxX: p.OffX + p.Scale*size[0], MaxY: p.OffY + p.Scale*size[1],
		}
		found := false
		for _, d := range dets {
			if d.ObjectID != int32(id) {
				continue
			}
			got := match.BoundingBox{
				MinX: float64(d.MinX), MinY: float64(d.MinY),
				MaxX: float64(d.MaxX), MaxY: float64(d.MaxY),
			}
			if match.IoU(truth, got) > 0.3 {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// fixture is everything set-up builds: the clip and the model trained on
// the same scene's reference images.
type fixture struct {
	clip    *clip
	model   *core.Model
	refSize map[int32][2]float64
}

func newFixture() (*fixture, error) {
	gen := trace.NewGenerator(trace.Config{W: clipW, H: clipH, FPS: clipFPS, Seed: scene})
	c := renderClip(gen)
	m, err := core.Train(gen.ReferenceImages(), core.TrainConfig{Seed: scene})
	if err != nil {
		return nil, fmt.Errorf("train model: %w", err)
	}
	refSize := make(map[int32][2]float64, len(m.Objects))
	for _, o := range m.Objects {
		refSize[o.ID] = [2]float64{o.W, o.H}
	}
	return &fixture{clip: c, model: m, refSize: refSize}, nil
}

// workload is one real-runtime traffic mix: open-loop clients streaming
// the clip at a fixed rate.
type workload struct {
	clients  int
	fps      int
	fastPath bool
}

// deployment is the five-stage scAtteR++ pipeline on loopback UDP.
type deployment struct {
	workers [wire.NumSteps]*agent.Worker
	procs   [wire.NumSteps]*procTimer // traced only
	sends   [wire.NumSteps]*sendTimer // traced only
	gate    *core.FastPathGate        // fast-path workloads only
	cache   *core.RecognitionCache    // fast-path workloads only
}

// buildProcessors wires the five processors the way a scatter-node does:
// the fast-path gate and recognition cache take the scatter-node sample
// configuration.
func buildProcessors(m *core.Model, fastPath bool) ([wire.NumSteps]core.Processor, *core.FastPathGate, *core.RecognitionCache) {
	procs := core.NewProcessors(m, true, analysisW, analysisH)
	if !fastPath {
		return procs, nil, nil
	}
	gate := core.NewFastPathGate(core.FastPathConfig{Enabled: true, MinConfidence: 0.5, RefreshEvery: 30})
	procs[wire.StepPrimary].(*core.Primary).SetFastPath(gate)
	procs[wire.StepMatching].(*core.Matching).SetFastPath(gate)
	cache := core.NewRecognitionCache(core.RecognitionCacheConfig{TTL: 500 * time.Millisecond, Capacity: 1024}, m.Index)
	procs[wire.StepLSH].(*core.LSHService).Cache = cache
	return procs, gate, cache
}

var quietLog = slog.New(slog.NewTextHandler(io.Discard, nil))

// deploy starts the five workers and routes them into a pipeline. A
// traced deployment stamps spans on frames and times every processor
// call and every send.
func deploy(m *core.Model, wl workload, traced bool) (*deployment, error) {
	procs, gate, cache := buildProcessors(m, wl.fastPath)
	d := &deployment{gate: gate, cache: cache}
	router := agent.NewStaticRouter(nil)
	routes := make(map[wire.Step][]string, wire.NumSteps)
	for step := wire.Step(0); int(step) < wire.NumSteps; step++ {
		cfg := agent.WorkerConfig{
			Step: step, Mode: core.ModeScatterPP, Processor: procs[step],
			ListenAddr: "127.0.0.1:0", Router: router, Host: "bench",
			TraceSpans: traced, Log: quietLog,
		}
		if traced {
			cfg.Processor, d.procs[step] = timeProcessor(procs[step])
			st := &sendTimer{}
			d.sends[step] = st
			cfg.WrapEndpoint = func(ep transport.Endpoint) transport.Endpoint {
				st.Endpoint = ep
				return st
			}
		}
		w, err := agent.StartWorker(cfg)
		if err != nil {
			d.close()
			return nil, fmt.Errorf("start %s worker: %w", step, err)
		}
		d.workers[step] = w
		routes[step] = []string{w.Addr()}
	}
	router.SetRoutes(routes)
	return d, nil
}

func (d *deployment) close() {
	for _, w := range d.workers {
		if w != nil {
			w.Close()
		}
	}
}

// delivered is one result as the client's consumer received it.
type delivered struct {
	res    agent.ClientResult
	recvAt time.Time
}

// stream is one open-loop client. Its ticker fires at start+n/fps for
// schedule slot n = 1, 2, ... whether or not earlier frames have
// returned. agent.Client numbers the frames it emits consecutively, and
// when its loop falls more than a slot behind the ticker drops the
// missed ticks; so the slot a frame was emitted in is derived from the
// emission time, a slot without a frame counts as unsent, and the
// frame shows the clip as the camera saw it at that slot, like a real
// capture loop that skipped a frame.
type stream struct {
	id       uint32
	first    int // clip loop position of slot 1
	start    time.Time
	interval time.Duration
	client   *agent.Client

	mu      sync.Mutex
	sent    map[uint64]emitted // by frame number
	results []delivered

	stop    chan struct{}
	drained chan struct{}
}

// emitted is one frame the client sent.
type emitted struct {
	slot uint64
	late time.Duration // emission time minus the slot's due time
}

// slotDue is the due time of schedule slot n.
func (s *stream) slotDue(n uint64) time.Time {
	return s.start.Add(time.Duration(n) * s.interval)
}

// frameDue is the due time of the slot frameNo was emitted in.
func (s *stream) frameDue(frameNo uint64) (time.Time, bool) {
	e, ok := s.sent[frameNo]
	return s.slotDue(e.slot), ok
}

// clipFrame is the clip frame slot n shows.
func (s *stream) clipFrame(n uint64) int { return clipIndex(s.first + int(n) - 1) }

// startStream starts a client whose schedule ends before stopAt. Its
// results are drained on a dedicated goroutine, so the consumer never
// lags agent.Client's bounded result channel.
func startStream(id uint32, first, fps int, ingress string, c *clip, stopAt time.Time) (*stream, error) {
	s := &stream{
		id: id, first: first, interval: time.Second / time.Duration(fps),
		sent: make(map[uint64]emitted), stop: make(chan struct{}), drained: make(chan struct{}),
	}
	// start precedes the client's ticker, so every tick maps to a slot ≥ 1.
	s.start = time.Now()
	cl, err := agent.StartClient(agent.ClientConfig{
		ID: id, FPS: fps, Ingress: ingress, Log: quietLog,
		NextFrame: func(i int) []byte {
			now := time.Now()
			slot := uint64(now.Sub(s.start) / s.interval)
			if !s.slotDue(slot).Before(stopAt) {
				return nil // schedule over: the client stops sending
			}
			s.mu.Lock()
			s.sent[uint64(i+1)] = emitted{slot: slot, late: now.Sub(s.slotDue(slot))}
			s.mu.Unlock()
			return c.payloads[s.clipFrame(slot)]
		},
	})
	if err != nil {
		return nil, fmt.Errorf("start client %d: %w", id, err)
	}
	s.client = cl
	go func() {
		defer close(s.drained)
		for {
			select {
			case r := <-cl.Results():
				now := time.Now()
				s.mu.Lock()
				s.results = append(s.results, delivered{res: r, recvAt: now})
				s.mu.Unlock()
			case <-s.stop:
				return
			}
		}
	}()
	return s, nil
}

// halt stops the consumer and the client.
func (s *stream) halt() {
	close(s.stop)
	<-s.drained
	s.client.Close()
}
