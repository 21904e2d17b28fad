package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"lmerge/internal/core"
	"lmerge/internal/durable"
	"lmerge/internal/metrics"
	"lmerge/internal/obs"
	"lmerge/internal/partition"
	"lmerge/internal/server"
	"lmerge/internal/spill"
	"lmerge/internal/temporal"
	"lmerge/internal/wire"
)

// span is one timed call into a layer during the in-process replay.
type span struct {
	name       string
	start, end int64
	parent     int // index of the enclosing span, -1 at the root
	batch      int
}

// tracer keeps spans in memory; the replay is single-threaded, so the open
// spans form a stack.
type tracer struct {
	spans []span
	open  []int
}

func (t *tracer) begin(name string, batch int) int {
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	t.spans = append(t.spans, span{name: name, start: nowNs(), parent: parent, batch: batch})
	t.open = append(t.open, len(t.spans)-1)
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	t.spans[id].end = nowNs()
	t.open = t.open[:len(t.open)-1]
}

// self returns each span's duration minus the time its children cover.
func (t *tracer) self() []int64 {
	self := make([]int64, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.end - s.start
		if s.parent >= 0 {
			self[s.parent] -= s.end - s.start
		}
	}
	return self
}

// selfByName sums self time per span name.
func (t *tracer) selfByName() map[string]int64 {
	out := map[string]int64{}
	for i, d := range t.self() {
		out[t.spans[i].name] += d
	}
	return out
}

// batch is a publisher-sized run of one replica: up to 64 elements, cut
// after a stable, as the server's ingest handler batches.
type batch struct {
	rep, from, to int
	stable        bool
}

// batches interleaves the replicas' batches, as two publishers arriving
// together would.
func batches(in *inputs) []batch {
	var per [2][]batch
	for r, rep := range in.reps {
		from := 0
		for i, e := range rep.els {
			if i+1-from == 64 || e.Kind == temporal.KindStable || i == len(rep.els)-1 {
				per[r] = append(per[r], batch{rep: r, from: from, to: i + 1, stable: e.Kind == temporal.KindStable})
				from = i + 1
			}
		}
	}
	out := make([]batch, 0, len(per[0])+len(per[1]))
	for i := 0; i < max(len(per[0]), len(per[1])); i++ {
		for r := range per {
			if i < len(per[r]) {
				out = append(out, per[r][i])
			}
		}
	}
	return out
}

// spillPrefix bounds the spill replay: under a budget the out-of-core tier
// costs tens of microseconds per element, so it replays only the start.
const spillPrefix = 40000

// replayLayers feeds the run's inputs through each layer's public API in
// process and times every call.
func replayLayers(b *bench, in *inputs) (map[string]metric, error) {
	dir := filepath.Join(b.dir, "replay")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	bs := batches(in)
	els := float64(in.elements())
	out := map[string]metric{}

	// wire encode: the pre-encoding pass, timed.
	var buf []byte
	var encNs, encBytes int64
	for _, rep := range in.reps {
		t := nowNs()
		for _, e := range rep.els {
			buf = wire.AppendData(buf[:0], e)
			encBytes += int64(len(buf))
		}
		encNs += nowNs() - t
	}
	out["wire.encode_ns_per_el"] = metric{float64(encNs) / els, "ns"}
	out["wire.bytes_per_el"] = metric{float64(encBytes) / els, "B/el"}

	// The ingest path as the server runs it: decode, WAL append, merge, and
	// the emit path's block-log append (a child of the merge span), then one
	// subscriber cursor copying the new frames out.
	tr := &tracer{}
	cur := -1
	blog := wire.NewBlockLog(nil)
	cursor := blog.Attach()
	var merged temporal.Stream
	op := core.NewOperator(core.New(core.CaseR3, func(e temporal.Element) {
		id := tr.begin("wire.log_append", cur)
		blog.Append(e)
		tr.end(id)
		merged = append(merged, e)
	}))
	ids := [2]core.StreamID{op.Attach(temporal.MinTime), op.Attach(temporal.MinTime)}
	wal, err := durable.CreateLog(dir, 1, false, nil)
	if err != nil {
		return nil, err
	}
	copyBuf := make([]byte, 32<<10)
	var decoded []temporal.Element
	peakState, prefixState, prefixEls := 0, 0, 0
	var ckptNs int64
	for k, bt := range bs {
		cur = k
		rep := in.reps[bt.rep]
		root := tr.begin("batch", k)
		id := tr.begin("wire.decode", k)
		decoded = decoded[:0]
		for data := rep.frames[rep.offs[bt.from]:rep.offs[bt.to]]; len(data) > 0; {
			_, body, n, err := wire.DecodeFrame(data)
			if err != nil {
				return nil, err
			}
			e, err := wire.DecodeData(body)
			if err != nil {
				return nil, err
			}
			decoded = append(decoded, e)
			data = data[n:]
		}
		tr.end(id)
		id = tr.begin("durable.wal_append", k)
		err := wal.Append(durable.Record{Kind: durable.RecBatch, ID: int64(ids[bt.rep]), Els: decoded})
		tr.end(id)
		if err != nil {
			return nil, err
		}
		id = tr.begin("core.process", k)
		err = op.ProcessBatch(ids[bt.rep], decoded)
		tr.end(id)
		if err != nil {
			return nil, err
		}
		id = tr.begin("wire.log_copyout", k)
		for {
			n, _, _ := blog.CopyOut(cursor, copyBuf, 1<<62)
			if n == 0 {
				break
			}
		}
		tr.end(id)
		tr.end(root)
		if k%16 == 0 {
			sz := op.Merger().SizeBytes()
			peakState = max(peakState, sz)
			if prefixEls < spillPrefix {
				prefixState = max(prefixState, sz)
			}
		}
		prefixEls += bt.to - bt.from
		if k == len(bs)/2 {
			snap := op.Merger().(interface{ Snapshot() temporal.Stream }).Snapshot()
			t := nowNs()
			err := durable.WriteCheckpoint(dir, &durable.Checkpoint{Gen: 1, Stable: op.MaxStable(), Backlog: merged, Snapshots: []temporal.Stream{snap}}, nil)
			ckptNs = nowNs() - t
			if err != nil {
				return nil, err
			}
		}
	}
	if err := wal.Close(); err != nil {
		return nil, err
	}
	blog.Detach(cursor)
	walInfo, err := os.Stat(wal.Path())
	if err != nil {
		return nil, err
	}
	t := nowNs()
	if _, err := durable.Load(dir); err != nil {
		return nil, err
	}
	loadNs := nowNs() - t
	self := tr.self()
	byName := tr.selfByName()
	var stableNs []float64
	var walNs []float64
	for i, s := range tr.spans {
		switch {
		case s.name == "core.process" && bs[s.batch].stable:
			stableNs = append(stableNs, float64(self[i]))
		case s.name == "durable.wal_append":
			walNs = append(walNs, float64(self[i]))
		}
	}
	out["core.process_ns_per_el"] = metric{float64(byName["core.process"]) / els, "ns"}
	out["core.stable_batch_ns"] = metric{median(stableNs), "ns"}
	out["wire.decode_ns_per_el"] = metric{float64(byName["wire.decode"]) / els, "ns"}
	out["wire.log_append_ns_per_el"] = metric{float64(byName["wire.log_append"]) / float64(len(merged)), "ns"}
	out["wire.log_copyout_ns_per_el"] = metric{float64(byName["wire.log_copyout"]) / float64(len(merged)), "ns"}
	out["durable.wal_append_ns_per_rec"] = metric{median(walNs), "ns"}
	out["durable.wal_bytes_per_el"] = metric{float64(walInfo.Size()) / els, "B/el"}
	out["durable.checkpoint_write_ms"] = metric{float64(ckptNs) / 1e6, "ms"}
	out["durable.load_ms"] = metric{float64(loadNs) / 1e6, "ms"}
	out["replay.state_bytes_peak"] = metric{float64(peakState), "bytes"}

	// partition: the Sharded pool the server runs under -partitions 2. Its
	// ProcessBatch enqueues onto worker rings, so the cost per element is the
	// callers' time plus the drain Detach waits for.
	sh := partition.NewSharded(2, func(emit core.Emit) core.Merger { return core.New(core.CaseR3, emit) }, func(temporal.Element) {})
	pids := [2]core.StreamID{sh.Attach(temporal.MinTime), sh.Attach(temporal.MinTime)}
	depth := 0
	t = nowNs()
	for k, bt := range bs {
		if err := sh.ProcessBatch(pids[bt.rep], in.reps[bt.rep].els[bt.from:bt.to]); err != nil {
			return nil, err
		}
		if k%64 == 0 {
			for _, p := range sh.PartitionStats() {
				depth = max(depth, p.QueueDepth)
			}
		}
	}
	sh.Detach(pids[0])
	sh.Detach(pids[1])
	partNs := nowNs() - t
	var load []float64
	for _, p := range sh.PartitionStats() {
		load = append(load, float64(p.Processed))
	}
	sh.Close()
	out["partition.process_ns_per_el"] = metric{float64(partNs) / els, "ns"}
	out["partition.imbalance"] = metric{metrics.Imbalance(load), "ratio"}
	out["partition.queue_depth_max"] = metric{float64(depth), "count"}

	// spill: the out-of-core wrapper at a budget of a third of the state the
	// plain merger reached over the same prefix, so that it spills on every
	// workload.
	budget := max(prefixState/3, 1)
	tel := &obs.Spill{}
	sp, err := spill.Wrap(core.New(core.CaseR3, func(temporal.Element) {}), spill.Config{Budget: budget, Dir: filepath.Join(dir, "spill"), Tel: tel})
	if err != nil {
		return nil, err
	}
	sop := core.NewOperator(sp)
	sids := [2]core.StreamID{sop.Attach(temporal.MinTime), sop.Attach(temporal.MinTime)}
	spEls := 0
	t = nowNs()
	for _, bt := range bs {
		if spEls >= spillPrefix {
			break
		}
		if err := sop.ProcessBatch(sids[bt.rep], in.reps[bt.rep].els[bt.from:bt.to]); err != nil {
			return nil, err
		}
		spEls += bt.to - bt.from
	}
	spNs := nowNs() - t
	ss := tel.Snapshot()
	sp.Close()
	out["spill.process_ns_per_el"] = metric{float64(spNs) / float64(spEls), "ns"}
	out["spill.replay_p95_ms"] = metric{ss.ReplayP95NS / 1e6, "ms"}
	out["spill.spilled_bytes_per_el"] = metric{float64(ss.SpilledBytes) / float64(spEls), "B/el"}
	out["spill.unspills"] = metric{float64(ss.Unspills), "count"}
	out["spill.resident_bytes"] = metric{float64(ss.ResidentBytes), "bytes"}

	pause, err := checkpointPause(b, in, filepath.Join(dir, "server"))
	if err != nil {
		return nil, err
	}
	out["server.checkpoint_pause_ms"] = metric{pause, "ms"}
	return out, nil
}

// checkpointPause feeds one replica through an in-process server with the
// workload's partitioning under a data dir, then times (*Server).Checkpoint:
// the stop-the-world barrier a checkpoint imposes on ingest at this history.
func checkpointPause(b *bench, in *inputs, dir string) (float64, error) {
	s, err := server.NewWithOptions("127.0.0.1:0", server.Options{Case: core.CaseR3, FeedbackLag: -1,
		Partitions: b.w.flagInt("-partitions"), DataDir: dir, CheckpointEvery: time.Hour})
	if err != nil {
		return 0, err
	}
	defer s.Close()
	p, err := server.ConnectBinary(s.Addr(), temporal.MinTime)
	if err != nil {
		return 0, err
	}
	defer p.Close()
	if err := p.SendStream(in.reps[0].els); err != nil {
		return 0, err
	}
	if err := p.Flush(); err != nil {
		return 0, err
	}
	select {
	case <-p.Acked():
	case <-time.After(120 * time.Second):
		return 0, fmt.Errorf("checkpoint replay: no ACK")
	}
	var ms []float64
	for i := 0; i < 3; i++ {
		t := nowNs()
		if err := s.Checkpoint(); err != nil {
			return 0, err
		}
		ms = append(ms, float64(nowNs()-t)/1e6)
	}
	sort.Float64s(ms)
	return ms[1], nil
}

// layerMetrics are the per-layer figures of a traced pass (m) that come from
// the benchmark's own client spans and the server's /metrics, with the
// tracing overhead against the untraced pass e2e.
func (m *measurement) layerMetrics(e2e *measurement) map[string]metric {
	out := map[string]metric{}
	tr, t := m.trial, e2e.trial
	if !tr.ok() || !t.ok() {
		return out
	}
	lastNs := max(t.pubs[0].lastNs, t.pubs[1].lastNs)
	out["server.deliver_p90_ms"] = metric{t.latency(0.9), "ms"}
	out["server.deliver_p99_ms"] = metric{quantile(t.latMs, 0.99), "ms"}
	out["server.deliver_p999_ms"] = metric{quantile(t.latMs, 0.999), "ms"}
	out["server.deliver_max_ms"] = metric{quantile(t.latMs, 1), "ms"}
	out["server.deliver_samples"] = metric{float64(len(t.latMs)), "count"}
	out["gen.late_p99_ms"] = metric{quantile(t.lateMs, 0.99), "ms"}
	out["gen.late_max_ms"] = metric{quantile(t.lateMs, 1), "ms"}
	out["gen.offered_eps"] = metric{float64(t.inEls) / (float64(lastNs-t.startNs) / 1e9), "el/s"}

	var writeNs int64
	for _, p := range tr.pubs {
		writeNs += p.writeNs
	}
	out["server.pub_write_wait_ms"] = metric{float64(writeNs) / 1e6, "ms"}
	out["server.handshake_ms"] = metric{median(tr.handshake), "ms"}
	out["server.catchup_ms"] = metric{median(m.catchups), "ms"}

	svc := func(doc map[string]any, path ...string) float64 {
		return num(doc, append([]string{"service"}, path...)...)
	}
	var in, outEl float64
	if nodes, ok := m.end["nodes"].([]any); ok {
		for _, n := range nodes {
			nm, _ := n.(map[string]any)
			if nm["name"] == "merge" {
				in = num(nm, "in_inserts") + num(nm, "in_adjusts") + num(nm, "in_stables")
				outEl = num(nm, "out_inserts") + num(nm, "out_adjusts") + num(nm, "out_stables")
			}
		}
	}
	if in > 0 {
		out["core.out_per_in"] = metric{outEl / in, "ratio"}
	}
	out["core.state_bytes"] = metric{max(svc(tr.mid, "merge_state_bytes"), svc(m.end, "merge_state_bytes")), "bytes"}
	out["wire.retained_log_bytes"] = metric{max(svc(tr.mid, "wire", "retained_log_bytes"), svc(m.end, "wire", "retained_log_bytes")), "bytes"}
	out["wire.credit_stalls"] = metric{svc(m.end, "wire", "credits_stalled"), "count"}
	out["server.backlog_elements"] = metric{svc(m.end, "subscriber_backlog"), "count"}
	out["durable.checkpoints"] = metric{svc(m.end, "durability", "checkpoints"), "count"}
	out["durable.checkpoint_bytes"] = metric{svc(m.end, "durability", "checkpoint_bytes"), "bytes"}
	out["durable.replayed_records"] = metric{svc(m.restart, "durability", "replayed_records"), "count"}
	if ps, ok := tr.mid["service"].(map[string]any)["partition_stats"].([]any); ok {
		var load []float64
		depth := 0.0
		for _, p := range ps {
			pm, _ := p.(map[string]any)
			load = append(load, num(pm, "Processed"))
			depth = max(depth, num(pm, "QueueDepth"))
		}
		out["partition.imbalance"] = metric{metrics.Imbalance(load), "ratio"}
		out["partition.queue_depth_max"] = metric{depth, "count"}
	}

	base, traced := e2e.metrics(), m.metrics()
	out["trace.overhead_p50_ms"] = metric{traced["deliver_p50_ms"].Value - base["deliver_p50_ms"].Value, "ms"}
	out["trace.overhead_cpu_us_per_el"] = metric{traced["server_cpu_us_per_el"].Value - base["server_cpu_us_per_el"].Value, "us"}
	return out
}
