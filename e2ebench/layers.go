package main

import (
	"math"
	"sync"
	"time"

	"github.com/edge-mar/scatter/internal/agent"
	"github.com/edge-mar/scatter/internal/core"
	"github.com/edge-mar/scatter/internal/transport"
	"github.com/edge-mar/scatter/internal/wire"
)

type frameKey struct {
	client uint32
	frame  uint64
}

// procCall is one frame's share of a processor call.
type procCall struct {
	key   frameKey
	start time.Time
	busy  time.Duration
}

// procTimer times every call into a core.Processor from outside it.
type procTimer struct {
	core.Processor
	mu    sync.Mutex
	calls []procCall
}

func (t *procTimer) record(keys []frameKey, start time.Time, busy time.Duration) {
	t.mu.Lock()
	for _, k := range keys {
		t.calls = append(t.calls, procCall{key: k, start: start, busy: busy})
	}
	t.mu.Unlock()
}

// Process implements core.Processor.
func (t *procTimer) Process(fr *wire.Frame) error {
	key := frameKey{fr.ClientID, fr.FrameNo}
	start := time.Now()
	err := t.Processor.Process(fr)
	t.record([]frameKey{key}, start, time.Since(start))
	return err
}

// batchTimer is a procTimer over a processor that also implements
// core.BatchHandler, so the worker keeps its batch former. A batch's
// time is shared equally among its frames.
type batchTimer struct {
	*procTimer
	bh core.BatchHandler
}

// ProcessBatch implements core.BatchHandler.
func (t *batchTimer) ProcessBatch(frs []*wire.Frame) []error {
	keys := make([]frameKey, len(frs))
	for i, fr := range frs {
		keys[i] = frameKey{fr.ClientID, fr.FrameNo}
	}
	start := time.Now()
	errs := t.bh.ProcessBatch(frs)
	if len(frs) > 0 {
		t.record(keys, start, time.Since(start)/time.Duration(len(frs)))
	}
	return errs
}

// timeProcessor wraps p in a timer that keeps p's BatchHandler, if any.
func timeProcessor(p core.Processor) (core.Processor, *procTimer) {
	t := &procTimer{Processor: p}
	if bh, ok := p.(core.BatchHandler); ok {
		return &batchTimer{procTimer: t, bh: bh}, t
	}
	return t, t
}

// sendCall is one outbound message of a worker.
type sendCall struct {
	at    time.Time
	dur   time.Duration
	bytes int
}

// sendTimer wraps a worker's transport endpoint (WorkerConfig.WrapEndpoint)
// and times every SendToAddr.
type sendTimer struct {
	transport.Endpoint
	mu    sync.Mutex
	calls []sendCall
}

// SendToAddr implements transport.Endpoint.
func (t *sendTimer) SendToAddr(addr string, data []byte) error {
	start := time.Now()
	err := t.Endpoint.SendToAddr(addr, data)
	dur := time.Since(start)
	t.mu.Lock()
	t.calls = append(t.calls, sendCall{at: start, dur: dur, bytes: len(data)})
	t.mu.Unlock()
	return err
}

// reassemblyDrops is the UDP receive path's lost-message count: partial
// messages expired or refused by the table bounds, and malformed
// fragments.
func (t *sendTimer) reassemblyDrops() uint64 {
	c, ok := t.Endpoint.(*transport.Conn)
	if !ok {
		return 0
	}
	st := c.Stats()
	return st.ReassemblyExpired + st.ReassemblyOverCap + st.FragmentsMalformed
}

// drops is a worker's count of frames that died there: every drop
// reason plus processing and forwarding errors.
func drops(st agent.WorkerStats) uint64 {
	return st.DroppedBusy + st.DroppedQueue + st.DroppedThreshold + st.DroppedShutdown +
		st.DroppedAdmission + st.Errors
}

// hopNames are the transport.hop.<name> transits in frame order: the
// uplink from the frame's due time to primary's enqueue, each
// stage-to-stage forward, and the delivery from the last stage that
// handled the frame (primary, for a fast-path answer) to the client's
// consumer.
var hopNames = [wire.NumSteps + 1]string{
	"client-primary", "primary-sift", "sift-encoding", "encoding-lsh", "lsh-matching", "matching-client",
}

// ledgerTolerance bounds the median per-frame residual of the ledger:
// e2e minus transit, queue and processing time. The parts come from
// three independent clocks (the benchmark's, the spans' µs stamps, and
// the stage records), so a correct ledger leaves only µs truncation and
// the worker's own bookkeeping around Process.
const ledgerTolerance = 0.25 // ms

// ledger is the per-layer decomposition of a traced phase.
type ledger struct {
	metrics    map[string]float64
	residualOK bool
	incomplete int // delivered frames whose spans or timings were missing
}

// buildLedger computes every per-layer metric of a traced phase.
func buildLedger(p *phase, sum e2eSummary) ledger {
	m := make(map[string]float64)
	window := p.wEnd.Sub(p.wStart)
	offered := float64(sum.offered)
	dueOf := func(k frameKey) (time.Time, bool) { return p.streams[k.client-1].frameDue(k.frame) }

	// core: per-frame busy time and utilization from the processor timers.
	busyOf := make([]map[frameKey]time.Duration, wire.NumSteps)
	for step := wire.Step(0); int(step) < wire.NumSteps; step++ {
		name := step.String()
		t := p.dep.procs[step]
		var busy []float64
		var busyInWindow time.Duration
		busyOf[step] = make(map[frameKey]time.Duration)
		for _, c := range t.calls {
			if p.inWindow(c.start) {
				busyInWindow += c.busy
			}
			if due, ok := dueOf(c.key); ok && p.inWindow(due) {
				busy = append(busy, ms(c.busy))
				busyOf[step][c.key] = c.busy
			}
		}
		m["core."+name+".busy_ms_p50"] = percentile(busy, 50)
		m["core."+name+".busy_ms_p99"] = percentile(busy, 99)
		m["core."+name+".util"] = ratio(float64(busyInWindow), float64(window))

		// transport: bytes and send time per outbound message.
		var sendUs []float64
		var bytes, sends float64
		for _, c := range p.dep.sends[step].calls {
			if p.inWindow(c.at) {
				sendUs = append(sendUs, float64(c.dur)/float64(time.Microsecond))
				bytes += float64(c.bytes)
				sends++
			}
		}
		m["transport."+name+".out_kb"] = ratio(bytes, sends) / 1024
		m["transport."+name+".send_us_p50"] = percentile(sendUs, 50)

		// agent: every drop reason plus errors, over frames received.
		a, c := p.a.workers[step], p.c.workers[step]
		m["agent."+name+".drop_ratio"] = ratio(float64(drops(c)-drops(a)), float64(c.Received-a.Received))
	}

	// Spans and stage records of delivered frames: queue waits, hop
	// transits, and the ledger residual.
	queues := make([][]float64, wire.NumSteps)
	hops := make([][]float64, len(hopNames))
	var residual []float64
	incomplete := 0
	for _, fr := range sum.frames {
		key := frameKey{fr.s.id, fr.d.res.FrameNo}
		spans := fr.d.res.Spans
		stages := fr.d.res.Stages
		if len(spans) == 0 || len(spans) != len(stages) {
			incomplete++
			continue
		}
		parts := time.Duration(0)
		ok := true
		for i, st := range stages {
			queues[st.Step] = append(queues[st.Step], float64(st.QueueMicros)/1e3)
			busy, found := busyOf[st.Step][key]
			if !found || spans[i].Step != st.Step {
				ok = false
			}
			parts += time.Duration(st.QueueMicros)*time.Microsecond + busy
		}
		due, _ := dueOf(key)
		up := time.Duration(int64(spans[0].EnqueueMicros)-due.UnixMicro()) * time.Microsecond
		hops[0] = append(hops[0], ms(up))
		parts += up
		for i := 1; i < len(spans); i++ {
			tr := time.Duration(int64(spans[i].EnqueueMicros)-int64(spans[i-1].EndMicros)) * time.Microsecond
			hops[spans[i].Step] = append(hops[spans[i].Step], ms(tr))
			parts += tr
		}
		down := time.Duration(fr.d.recvAt.UnixMicro()-int64(spans[len(spans)-1].EndMicros)) * time.Microsecond
		hops[len(hopNames)-1] = append(hops[len(hopNames)-1], ms(down))
		parts += down
		if !ok {
			incomplete++
			continue
		}
		residual = append(residual, ms(fr.e2e-parts))
	}
	for step := wire.Step(0); int(step) < wire.NumSteps; step++ {
		m["agent."+step.String()+".queue_ms_p50"] = percentile(queues[step], 50)
		m["agent."+step.String()+".queue_ms_p99"] = percentile(queues[step], 99)
	}
	for i, name := range hopNames {
		m["transport.hop."+name+".transit_ms_p50"] = percentile(hops[i], 50)
	}
	m["transport.hop.client-primary.transit_ms_p99"] = percentile(hops[0], 99)
	m["transport.hop.matching-client.transit_ms_p99"] = percentile(hops[len(hopNames)-1], 99)
	reasm := float64(p.c.reasmDrops - p.a.reasmDrops)
	m["transport.reassembly_drops"] = ratio(reasm, offered)
	residualP50 := percentile(residual, 50)
	m["ledger.residual_ms_p50"] = residualP50

	// core: fast-path gate and recognition cache.
	skips, fulls := float64(p.c.skips-p.a.skips), float64(p.c.fulls-p.a.fulls)
	m["core.fastpath.skip_ratio"] = ratio(skips, skips+fulls)
	hits, miss := float64(p.c.cacheHits-p.a.cacheHits), float64(p.c.cacheMiss-p.a.cacheMiss)
	m["core.lsh.cache_hit_ratio"] = ratio(hits, hits+miss)

	// agent: client stream hygiene and frame accounting.
	var late []float64
	for _, s := range p.streams {
		for _, e := range s.sent {
			if p.inWindow(s.slotDue(e.slot)) {
				late = append(late, ms(e.late))
			}
		}
	}
	m["agent.client.late_ms_p99"] = percentile(late, 99)
	unsent := float64(sum.offered - sum.sent)
	m["agent.client.unsent_ratio"] = ratio(unsent, offered)
	var workerDrops float64
	for step := range p.c.workers {
		workerDrops += float64(drops(p.c.workers[step]) - drops(p.a.workers[step]))
	}
	m["agent.unaccounted_ratio"] = ratio(offered-float64(sum.delivered)-workerDrops-reasm-unsent, offered)

	// go: runtime/metrics over the window.
	m["go.alloc_kb_per_frame"] = ratio(float64(p.goB.allocBytes-p.goA.allocBytes)/1024, offered)
	m["go.gc_cpu_share"] = ratio(p.goB.gcCPU-p.goA.gcCPU, p.goB.totalCPU-p.goA.totalCPU)
	m["go.heap_live_mb"] = float64(p.goB.heapLive) / (1 << 20)
	m["go.sched_latency_ms_p99"] = schedP99(p.goA, p.goB)

	return ledger{
		metrics:    m,
		residualOK: len(residual) > 0 && math.Abs(residualP50) <= ledgerTolerance,
		incomplete: incomplete,
	}
}
