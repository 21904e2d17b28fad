// Command perfbench measures lmserved end to end and layer by layer.
//
// It runs the real lmserved binary as a child process on loopback TCP, drives
// it over the v2 binary wire with two publishers (the fewest that make a
// merge) and one live subscriber, and checks the merged stream against the
// generated script. With -trace 1 it prints per-layer metrics from a separate
// traced pass instead of the end-to-end ones. README.md documents the
// workloads, the metrics and the layer map.
//
// Usage (from the repository root; perfbench/run.sh builds both binaries):
//
//	perfbench -lmserved <bin> -work <dir> --workload replicas --seed 1 --seconds 8 --trace 0
//	perfbench -lmserved <bin> -work <dir> --steady 5 --seconds 8 [--workload w] [--out f] [--baseline f]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"time"

	"lmerge/internal/temporal"
)

// workload is one traffic mix. README.md records why each exists.
type workload struct {
	name string
	// eventDuration is the mean event lifetime in ticks; with the default
	// 20s MaxGap, 10000·MaxGap/2 keeps about 10k events live (the paper's
	// setting) and 20000 keeps merge state tiny.
	eventDuration temporal.Time
	rate          int // elements per second per publisher
	flags         []string
	dataDir       bool
	// restartSeconds is the part of a run kept for the restarts that time
	// recover_s.
	restartSeconds int
}

// span is how many seconds of traffic a run of the given length sends.
func (w *workload) span(seconds int) int { return max(1, seconds-w.restartSeconds) }

const paperDuration = 10000 * 20000 / 2

var workloads = []*workload{
	{name: "replicas", eventDuration: paperDuration, rate: 50000, flags: []string{"-case", "R3"}},
	// durable keeps 3s of the run for its restarts; an 8s run then sends 5s of
	// traffic, which spans two 2s checkpoints and ends a second before the
	// third (a run ending near a checkpoint makes the tail bimodal).
	{name: "durable", eventDuration: 20000, rate: 50000, dataDir: true, restartSeconds: 3,
		flags: []string{"-case", "R3", "-partitions", "2"}},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// flagInt is the value of one of the workload's integer lmserved flags, or
// 0 when it does not set it.
func (w *workload) flagInt(name string) int {
	for i := 0; i+1 < len(w.flags); i++ {
		if w.flags[i] == name {
			v, _ := strconv.Atoi(w.flags[i+1])
			return v
		}
	}
	return 0
}

// serverFlags is the workload's exact lmserved flag set for one instance.
func (w *workload) serverFlags(dataDir string) []string {
	f := append([]string(nil), w.flags...)
	if w.dataDir {
		f = append(f, "-data-dir", dataDir)
	}
	return f
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	bin := flag.String("lmserved", "", "lmserved binary to measure")
	work := flag.String("work", "", "scratch directory for data dirs and spill runs (removed on exit)")
	name := flag.String("workload", "", "workload: replicas, durable")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 8, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 prints per-layer metrics from a traced pass; 0 prints end-to-end metrics")
	steady := flag.Int("steady", 0, "repeat each workload (or -workload) with this many seeds and print per-metric median and quartiles")
	out := flag.String("out", "", "steady mode: also write the report to this file")
	baseline := flag.String("baseline", "", "steady mode: compare medians with this earlier report (refused when NumCPU differs)")
	flag.Parse()
	if *bin == "" || *work == "" {
		fatalf("-lmserved and -work are required (perfbench/run.sh passes them)")
	}
	if *steady > 0 {
		if err := steadyReport(*steady, *name, *seconds, *trace, *out, *baseline); err != nil {
			fatalf("%v", err)
		}
		return
	}
	w := findWorkload(*name)
	if w == nil {
		fatalf("unknown workload %q", *name)
	}
	dir, err := os.MkdirTemp(*work, "run-")
	if err != nil {
		fatalf("%v", err)
	}
	defer os.RemoveAll(dir)
	b := &bench{w: w, bin: *bin, dir: dir, seed: *seed, seconds: *seconds,
		env: append(os.Environ(), "TMPDIR="+dir)}
	steal0, total0 := hostCPU()
	res, err := b.run(*trace == 1)
	if err != nil {
		killChildren()
		os.RemoveAll(dir)
		fatalf("%s: %v", w.name, err)
	}
	env := envStamp(w, b.serverFlags(), *seed, *seconds, *trace)
	if steal1, total1 := hostCPU(); total1 > total0 {
		env["host_steal_share"] = float64(steal1-steal0) / float64(total1-total0)
	}
	stamp, _ := json.Marshal(map[string]any{"env": env})
	fmt.Println(string(stamp))
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
}

func fatalf(format string, args ...any) {
	killChildren()
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}

// bench runs one workload once.
type bench struct {
	w       *workload
	bin     string
	dir     string
	seed    int64
	seconds int
	env     []string
	n       int // data dirs handed out
}

// freshDir returns an empty directory under the run's scratch directory.
func (b *bench) freshDir() string {
	b.n++
	return filepath.Join(b.dir, fmt.Sprintf("data%d", b.n))
}

func (b *bench) serverFlags() []string { return b.w.serverFlags(filepath.Join(b.dir, "data")) }

// counts accumulates operations attempted and failed across a run.
type counts struct {
	attempted, failed int
	why               []string
}

func (c *counts) op(err error, format string, args ...any) bool {
	c.attempted++
	if err != nil {
		c.failed++
		c.why = append(c.why, fmt.Sprintf(format, args...)+": "+err.Error())
		return false
	}
	return true
}

// setupStarts is how many bare start-ups a run times besides its own start
// and its restarts; set-up is a few milliseconds with rare outliers,
// so it is reported as a median.
const setupStarts = 25

func (b *bench) run(traced bool) (*result, error) {
	in := b.makeInputs()
	// The generator collects garbage only between phases (and near the
	// limit), so its collector never competes with the server for a CPU
	// while a phase is timed.
	debug.SetGCPercent(-1)
	debug.SetMemoryLimit(3 << 30)
	var cnt counts
	e2e, err := b.measure(in, &cnt, false)
	if err != nil {
		return nil, err
	}
	res := &result{Metrics: map[string]metric{}}
	if !traced {
		res.Metrics = e2e.metrics()
	} else {
		tr, err := b.measure(in, &cnt, true)
		if err != nil {
			return nil, err
		}
		// The replay's figures come first; where the server itself exports
		// the layer's counters (partition_stats, the spill block), they win.
		if res.Metrics, err = replayLayers(b, in); err != nil {
			return nil, err
		}
		for k, v := range tr.layerMetrics(e2e) {
			res.Metrics[k] = v
		}
	}
	res.Attempted, res.Failed = cnt.attempted, cnt.failed
	res.Correct = cnt.failed == 0
	for _, why := range cnt.why {
		fmt.Fprintf(os.Stderr, "perfbench: %s: FAILED %s\n", b.w.name, why)
	}
	return res, nil
}

// makeInputs sizes the script so each replica holds rate×span elements.
func (b *bench) makeInputs() *inputs {
	return makeInputs(b.w, b.seed, eventsFor(b.w.rate*b.w.span(b.seconds)))
}

// measurement is what one pass of a workload (untraced or traced) saw.
type measurement struct {
	w        *workload
	in       *inputs
	setups   []float64
	recovers []float64
	trial    *trial
	catchups []float64 // ms per full-history late subscription
	end      map[string]any
	restart  map[string]any // /metrics after the first restart
}

// measure times set-ups, runs one trial, checks its output, and restarts
// the server to time recovery.
func (b *bench) measure(in *inputs, cnt *counts, traced bool) (*measurement, error) {
	m := &measurement{w: b.w, in: in}
	if !traced {
		runtime.GC()
		for i := 0; i < setupStarts; i++ {
			c, d, err := launch(b.bin, b.w.serverFlags(b.freshDir()), b.env)
			if !cnt.op(err, "set-up handshake") {
				continue
			}
			m.setups = append(m.setups, d)
			if err := c.stop(); err != nil {
				return nil, err
			}
		}
	}
	runtime.GC()
	flags := b.w.serverFlags(b.freshDir())
	c, d, err := launch(b.bin, flags, b.env)
	if !cnt.op(err, "server start") {
		return nil, err
	}
	m.setups = append(m.setups, d)
	tr := runTrial(c, in, b.w.rate, traced)
	m.trial = tr
	cnt.attempted += tr.attempted
	cnt.failed += len(tr.failures)
	cnt.why = append(cnt.why, tr.failures...)
	if tr.live == nil || tr.live.err != nil {
		c.kill()
		return m, nil
	}
	checkOutput(in, tr.live.out, cnt)
	fmt.Fprintf(os.Stderr, "perfbench: %s: %.0f merged el/s, p50 %.3fms p90 %.3fms, server %.3fus/el %.1fMiB, %d latency samples\n",
		b.w.name, tr.mergedEPS(), tr.latency(0.5), tr.latency(0.9), tr.cpuPerEl(), tr.rssMiB, len(tr.latMs))
	m.end, err = c.scrape()
	if cnt.op(err, "end scrape") {
		ev := int(num(m.end, "service", "wire", "evictions"))
		cnt.attempted += ev
		cnt.failed += ev
		if ev > 0 {
			cnt.why = append(cnt.why, fmt.Sprintf("%d subscriber evictions", ev))
		}
	}
	catchups := 1
	if traced {
		catchups = 5
	}
	for i := 0; i < catchups; i++ {
		t := time.Now()
		err := drainMatches(c.addr, tr.live)
		if cnt.op(err, "catch-up subscription") {
			m.catchups = append(m.catchups, float64(time.Since(t))/1e6)
		}
	}
	tr.release()
	return m, b.restarts(m, c, flags, tr.live, cnt, traced)
}

// restarts stops the server gracefully and relaunches it on the same flags
// (and -data-dir) until the first handshake OK: recover_s. Under -data-dir
// each relaunch must replay the full merged history byte for byte.
func (b *bench) restarts(m *measurement, c *child, flags []string, live *liveRun, cnt *counts, traced bool) error {
	n := 25
	if b.w.dataDir {
		n = 3
	}
	if traced {
		n = 1
	}
	runtime.GC()
	for i := 0; i < n; i++ {
		if err := c.stop(); err != nil {
			return err
		}
		var d float64
		var err error
		c, d, err = launch(b.bin, flags, b.env)
		if !cnt.op(err, "restart") {
			return err
		}
		m.recovers = append(m.recovers, d)
		if b.w.dataDir {
			cnt.op(drainMatches(c.addr, live), "post-restart history")
		}
		if i == 0 && traced {
			if m.restart, err = c.scrape(); !cnt.op(err, "restart scrape") {
				m.restart = nil
			}
		}
	}
	return c.stop()
}

// drainMatches subscribes from the start of the merged history and checks
// that it replays the live stream byte for byte.
func drainMatches(addr string, live *liveRun) error {
	s, err := dialSub(addr, 0)
	if err != nil {
		return err
	}
	defer s.conn.Close()
	crc, err := s.drainCRC(live.frames)
	if err != nil {
		return err
	}
	if crc != live.crc {
		return fmt.Errorf("history CRC %08x differs from the live stream's %08x", crc, live.crc)
	}
	return nil
}

// checkOutput compares the live merged stream with the script: each script
// event is one delivery; a mismatch fails every delivery of the run.
func checkOutput(in *inputs, out temporal.Stream, cnt *counts) {
	want := in.script.TDB()
	cnt.attempted += want.Len()
	got, err := temporal.Reconstitute(out)
	if err == nil && got.Equal(want) {
		return
	}
	cnt.failed += want.Len()
	if err != nil {
		cnt.why = append(cnt.why, fmt.Sprintf("merged stream does not reconstitute: %v", err))
		return
	}
	missing, extra := 0, 0
	for _, ev := range want.Events() {
		missing += max(0, want.Count(ev)-got.Count(ev))
	}
	for _, ev := range got.Events() {
		extra += max(0, got.Count(ev)-want.Count(ev))
	}
	cnt.why = append(cnt.why, fmt.Sprintf("merged TDB differs from the script: %d events missing, %d extra", missing, extra))
}

// metrics are the end-to-end figures of an untraced pass.
func (m *measurement) metrics() map[string]metric {
	out := map[string]metric{
		"setup_s":   {median(m.setups), "s"},
		"recover_s": {median(m.recovers), "s"},
	}
	if t := m.trial; t.ok() {
		out["deliver_p50_ms"] = metric{t.latency(0.5), "ms"}
		out["merged_eps"] = metric{t.mergedEPS(), "el/s"}
		out["server_cpu_us_per_el"] = metric{t.cpuPerEl(), "us"}
		out["server_rss_mb"] = metric{t.rssMiB, "MiB"}
	}
	return out
}

// quantile is the type-7 (linear interpolation) quantile of vals.
func quantile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	h := q * float64(len(s)-1)
	lo := int(h)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (h-float64(lo))*(s[lo+1]-s[lo])
}

func median(vals []float64) float64 { return quantile(vals, 0.5) }

// num walks a decoded /metrics document; a missing path reads 0.
func num(doc map[string]any, path ...string) float64 {
	var v any = doc
	for _, k := range path {
		m, ok := v.(map[string]any)
		if !ok {
			return 0
		}
		v = m[k]
	}
	f, _ := v.(float64)
	return f
}
