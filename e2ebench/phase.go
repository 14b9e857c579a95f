package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"github.com/edge-mar/scatter/internal/agent"
	"github.com/edge-mar/scatter/internal/transport"
	"github.com/edge-mar/scatter/internal/wire"
)

// counters is one snapshot of every counter the per-layer ledger reads.
type counters struct {
	workers    [wire.NumSteps]agent.WorkerStats
	reasmDrops uint64
	skips      uint64
	fulls      uint64
	cacheHits  uint64
	cacheMiss  uint64
}

func (d *deployment) counters() counters {
	var c counters
	for i, w := range d.workers {
		c.workers[i] = w.Stats()
		if d.sends[i] != nil {
			c.reasmDrops += d.sends[i].reassemblyDrops()
		}
	}
	c.skips, c.fulls = d.gate.Skips(), d.gate.Fulls()
	c.cacheHits, c.cacheMiss = d.cache.Hits(), d.cache.Misses()
	return c
}

// phase is one deployment streamed for a warm-up and a measured window.
// Frames are attributed to the window by their due time.
type phase struct {
	dep          *deployment
	streams      []*stream
	wStart, wEnd time.Time
	// setupWall is deployment start-up plus warm-up.
	setupWall time.Duration

	// Counter snapshots at window start (a) and after the drain grace (c);
	// process CPU, runtime metrics and machine CPU jiffies at window
	// start and end.
	a, c       counters
	cpuA, cpuB time.Duration
	goA, goB   goSample
	jifA, jifB [2]uint64
}

func sleepUntil(t time.Time) { time.Sleep(time.Until(t)) }

// runPhase deploys the pipeline, streams the workload's clients through a
// warm-up and a measured window, drains in-flight frames, and tears the
// deployment down. The seed picks each client's entry into the clip loop
// and the fraction of a frame interval the second client starts after
// the first.
func runPhase(fx *fixture, wl workload, traced bool, seed int64, warm, window time.Duration) (*phase, error) {
	t0 := time.Now()
	dep, err := deploy(fx.model, wl, traced)
	if err != nil {
		return nil, err
	}
	p := &phase{dep: dep}
	defer dep.close()

	rng := rand.New(rand.NewSource(seed))
	offset := time.Duration(rng.Float64() * float64(time.Second/time.Duration(wl.fps)))
	p.wStart = time.Now().Add(warm)
	p.wEnd = p.wStart.Add(window)
	ingress := dep.workers[wire.StepPrimary].Addr()
	for i := 0; i < wl.clients; i++ {
		if i > 0 {
			time.Sleep(offset)
		}
		s, err := startStream(uint32(i+1), rng.Intn(clipPeriod), wl.fps, ingress, fx.clip, p.wEnd)
		if err != nil {
			p.halt()
			return nil, err
		}
		p.streams = append(p.streams, s)
	}

	sleepUntil(p.wStart)
	p.a = dep.counters()
	p.cpuA, _ = cpuTime()
	p.goA = readGo()
	p.jifA = cpuJiffies()
	p.setupWall = time.Since(t0)

	sleepUntil(p.wEnd)
	p.cpuB, _ = cpuTime()
	p.goB = readGo()
	p.jifB = cpuJiffies()

	// Frames still in flight at the window's end either arrive or are
	// counted by a drop counter within the grace. A traced phase waits
	// out the reassembly timeout and its sweep too, so transport losses
	// reach the frame accounting.
	grace := time.Second
	if traced {
		grace = transport.ReassemblyTimeout*3/2 + 200*time.Millisecond
	}
	sleepUntil(p.wEnd.Add(grace))
	p.c = dep.counters()
	p.halt()
	return p, nil
}

func (p *phase) halt() {
	for _, s := range p.streams {
		s.halt()
	}
}

// frameResult is one delivered frame due inside the window.
type frameResult struct {
	s   *stream
	d   delivered
	e2e time.Duration
}

// e2eSummary is the end-to-end view of a phase.
type e2eSummary struct {
	offered, sent, delivered int
	e2eMs                    []float64
	jitterMs                 float64
	poseHits                 int
	badIDs                   int
	cpuMsPerFrame            float64
	steal                    float64 // hypervisor steal share over the window
	lateMax                  time.Duration
	frames                   []frameResult
}

func (p *phase) inWindow(t time.Time) bool { return !t.Before(p.wStart) && t.Before(p.wEnd) }

// summarize counts offered, sent and delivered frames by due time and
// scores every delivered result against the clip's ground truth.
func (p *phase) summarize(fx *fixture) e2eSummary {
	var sum e2eSummary
	var jitterSum float64
	var jitterN int
	for _, s := range p.streams {
		for n := uint64(1); s.slotDue(n).Before(p.wEnd); n++ {
			if p.inWindow(s.slotDue(n)) {
				sum.offered++
			}
		}
		slots := make(map[uint64]bool, len(s.sent))
		for _, e := range s.sent {
			if p.inWindow(s.slotDue(e.slot)) {
				slots[e.slot] = true
				sum.lateMax = max(sum.lateMax, e.late)
			}
		}
		sum.sent += len(slots)
		var mine []frameResult
		for _, d := range s.results {
			due, ok := s.frameDue(d.res.FrameNo)
			if !ok || !p.inWindow(due) {
				continue
			}
			mine = append(mine, frameResult{s: s, d: d, e2e: d.recvAt.Sub(due)})
		}
		sort.Slice(mine, func(i, j int) bool { return mine[i].d.res.FrameNo < mine[j].d.res.FrameNo })
		for i, fr := range mine {
			sum.e2eMs = append(sum.e2eMs, ms(fr.e2e))
			if i > 0 {
				// RFC 3550 interarrival jitter as metrics.Collector
				// computes it for Fig. 10: mean |ΔE2E| between
				// consecutive delivered frames of one client.
				d := ms(fr.e2e) - ms(mine[i-1].e2e)
				if d < 0 {
					d = -d
				}
				jitterSum += d
				jitterN++
			}
			k := fr.s.clipFrame(fr.s.sent[fr.d.res.FrameNo].slot)
			for _, det := range fr.d.res.Detections {
				if _, ok := fx.refSize[det.ObjectID]; !ok {
					sum.badIDs++
				}
			}
			if poseHit(fx.clip, k, fr.d.res.Detections, fx.refSize) {
				sum.poseHits++
			}
		}
		sum.frames = append(sum.frames, mine...)
	}
	sum.delivered = len(sum.e2eMs)
	sum.jitterMs = ratio(jitterSum, float64(jitterN))
	sum.cpuMsPerFrame = ratio(ms(p.cpuB-p.cpuA), float64(sum.offered))
	sum.steal = stealShare(p.jifA, p.jifB)
	return sum
}

func (s e2eSummary) String() string {
	return fmt.Sprintf("offered=%d sent=%d delivered=%d pose_hits=%d bad_ids=%d max_late=%.1fms steal=%.4f",
		s.offered, s.sent, s.delivered, s.poseHits, s.badIDs, ms(s.lateMax), s.steal)
}

// lossNote breaks the frames a phase lost down by where they died: slots
// the client never sent, each worker's drop reasons over the window and
// the drain grace, and the rest (kernel UDP drops, expired reassembly,
// results later than the grace), so a run that loses a frame says which
// layer lost it.
func (p *phase) lossNote(sum e2eSummary) string {
	var b strings.Builder
	fmt.Fprintf(&b, "lost %d of %d offered: unsent=%d", sum.offered-sum.delivered, sum.offered, sum.offered-sum.sent)
	counted := sum.offered - sum.sent
	for step, w := range p.c.workers {
		a := p.a.workers[step]
		if n := drops(w) - drops(a); n > 0 {
			fmt.Fprintf(&b, " %s{threshold=%d queue=%d busy=%d admission=%d errors=%d}", wire.Step(step),
				w.DroppedThreshold-a.DroppedThreshold, w.DroppedQueue-a.DroppedQueue, w.DroppedBusy-a.DroppedBusy,
				w.DroppedAdmission-a.DroppedAdmission, w.Errors-a.Errors)
			counted += int(n)
		}
	}
	fmt.Fprintf(&b, " elsewhere=%d", sum.offered-sum.delivered-counted)
	return b.String()
}
