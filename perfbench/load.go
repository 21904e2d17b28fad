package main

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"lmerge/internal/temporal"
	"lmerge/internal/wire"
)

// base is the benchmark's monotonic clock origin; every recorded instant is
// nanoseconds since it.
var base = time.Now()

func nowNs() int64 { return int64(time.Since(base)) }

// subWindow is the live subscriber's credit window: large enough that
// credit never throttles delivery on loopback.
const subWindow = 8 << 20

// sub is a raw v2 subscriber that replenishes credit as it reads.
type sub struct {
	conn       net.Conn
	fr         *wire.Reader
	sinceGrant int64
	gbuf       []byte
}

func dialSub(addr string, from int) (*sub, error) {
	conn, fr, _, err := dialHello(addr, wire.AppendHelloSub(nil, from, subWindow))
	if err != nil {
		return nil, err
	}
	return &sub{conn: conn, fr: fr}, nil
}

// next returns the next frame, granting credit back every half window.
func (s *sub) next() (byte, []byte, error) {
	typ, body, err := s.fr.Next()
	if err != nil {
		return 0, nil, err
	}
	s.sinceGrant += wire.FrameHeader + 1 + int64(len(body))
	if s.sinceGrant >= subWindow/2 {
		s.gbuf = wire.AppendCredit(s.gbuf[:0], s.sinceGrant)
		if _, err := s.conn.Write(s.gbuf); err != nil {
			return 0, nil, err
		}
		s.sinceGrant = 0
	}
	return typ, body, nil
}

// drainCRC reads n DATA frames and returns the CRC of their bodies: the
// byte-identity check between the live stream and a full-history replay.
func (s *sub) drainCRC(n int) (uint32, error) {
	var crc uint32
	for i := 0; i < n; {
		typ, body, err := s.next()
		if err != nil {
			return 0, fmt.Errorf("after %d of %d frames: %w", i, n, err)
		}
		if typ == wire.FrData {
			crc = crc32.Update(crc, crc32.IEEETable, body)
			i++
		}
	}
	return crc, nil
}

// pubConn is a raw v2 publisher. A reader goroutine watches for the ACK the
// server sends once the stream's stable(∞) is merged.
type pubConn struct {
	conn  net.Conn
	acked chan struct{}
	ackNs atomic.Int64
	bad   atomic.Value // string: a DETACH or ERR the server sent
}

func dialPub(addr string) (*pubConn, error) {
	conn, fr, _, err := dialHello(addr, wire.AppendHelloPub(nil, temporal.MinTime))
	if err != nil {
		return nil, err
	}
	p := &pubConn{conn: conn, acked: make(chan struct{})}
	go func() {
		for {
			typ, body, err := fr.Next()
			if err != nil {
				return
			}
			switch typ {
			case wire.FrAck:
				select {
				case <-p.acked: // a repeated ACK changes nothing
				default:
					p.ackNs.Store(nowNs())
					close(p.acked)
				}
			case wire.FrDetach, wire.FrErr:
				p.bad.Store(fmt.Sprintf("frame 0x%02x: %s", typ, body))
			}
		}
	}()
	return p, nil
}

// paceTick is the generator's shortest sleep.
const paceTick = 250 * time.Microsecond

// maxChunk caps the frames one write carries, so a catching-up generator
// does not hand the server one giant burst.
const maxChunk = 256

// pubRun is what one publisher recorded.
type pubRun struct {
	dueNs   []int64 // per element
	lastNs  int64   // when the last write began
	late    []int64 // generator lateness samples, ns
	writeNs int64   // time inside conn.Write (traced runs only)
	err     error
}

// publish sends rep over p open loop: element i is due at start+i/rate. Each
// wake-up writes everything due, and lateness is measured from the first due
// element. half, when not nil, is closed once half of rep is written.
func publish(p *pubConn, rep *replica, rate int, traced bool, start int64, half chan<- struct{}) *pubRun {
	n := len(rep.els)
	run := &pubRun{dueNs: make([]int64, n)}
	interval := int64(time.Second) / int64(rate)
	for i := range run.dueNs {
		run.dueNs[i] = start + int64(i)*interval
	}
	for i := 0; i < n; {
		now := nowNs()
		if due := run.dueNs[i]; now < due {
			time.Sleep(max(time.Duration(due-now), paceTick))
			continue
		}
		j := min(n, int((now-start)/interval)+1, i+maxChunk)
		run.late = append(run.late, now-run.dueNs[i])
		run.lastNs = now
		if _, err := p.conn.Write(rep.frames[rep.offs[i]:rep.offs[j]]); err != nil {
			run.err = err
			return run
		}
		if traced {
			run.writeNs += nowNs() - now
		}
		if half != nil && i < n/2 && j >= n/2 {
			close(half)
		}
		i = j
	}
	return run
}

// liveRun is what the live subscriber recorded up to stable(∞). While the
// run is live it only copies each DATA body aside with its arrival time, so
// the subscriber takes as little CPU from the server as it can; decode runs
// once the run is over.
type liveRun struct {
	raw    []byte  // DATA frame bodies, back to back
	ends   []int32 // where each body ends in raw
	atNs   []int64 // when each arrived
	frames int
	infNs  int64 // receipt of stable(∞)
	err    error

	// Filled by decode.
	out     temporal.Stream
	crc     uint32
	insHist []int32 // history of each first-seen merged insert
	insNs   []int64 // and when it arrived
}

func readLive(s *sub, in *inputs) *liveRun {
	run := &liveRun{raw: make([]byte, 0, len(in.reps[0].frames)+len(in.reps[0].frames)/4)}
	for {
		typ, body, err := s.next()
		if err != nil {
			run.err = fmt.Errorf("live subscriber: %w", err)
			return run
		}
		if typ != wire.FrData || len(body) == 0 {
			continue
		}
		now := nowNs()
		run.raw = append(run.raw, body...)
		run.ends = append(run.ends, int32(len(run.raw)))
		run.atNs = append(run.atNs, now)
		run.frames++
		// The element codec leads with the kind; a stable's time follows.
		if temporal.Kind(body[0]) != temporal.KindStable {
			continue
		}
		if t, n := binary.Varint(body[1:]); n > 0 && temporal.Time(t) == temporal.Infinity {
			run.infNs = now
			return run
		}
	}
}

// decode turns the recorded bodies into the merged stream, its CRC, and the
// arrival of each event's first merged insert.
func (run *liveRun) decode(in *inputs) error {
	run.out = make(temporal.Stream, 0, len(run.ends))
	seen := make([]bool, len(in.script.Histories))
	from := int32(0)
	for i, end := range run.ends {
		body := run.raw[from:end]
		from = end
		e, err := wire.DecodeData(body)
		if err != nil {
			return fmt.Errorf("live subscriber: %w", err)
		}
		run.crc = crc32.Update(run.crc, crc32.IEEETable, body)
		run.out = append(run.out, e)
		if e.Kind == temporal.KindInsert {
			if h, ok := in.keyOf[e.Payload.Data]; ok && !seen[h] {
				seen[h] = true
				run.insHist = append(run.insHist, h)
				run.insNs = append(run.insNs, run.atNs[i])
			}
		}
	}
	run.raw, run.ends, run.atNs = nil, nil, nil
	return nil
}

// trial is one measured pass of a workload's inputs through a running server.
type trial struct {
	inEls     int // input elements across both replicas
	startNs   int64
	live      *liveRun
	pubs      [2]*pubRun
	latMs     []float64 // per merged insert, from the earliest replica copy's due time
	latNs     []int64   // and its arrival
	lateMs    []float64
	cpuNs     int64 // server CPU from the first publish byte to the last ACK
	rssMiB    float64
	handshake []float64 // publisher handshake round trips, ms
	mid       map[string]any
	failures  []string
	attempted int
}

// release drops the per-element records once a trial's figures and checks
// are done, so a run holds only their summaries.
func (t *trial) release() {
	t.live.out, t.live.insHist, t.live.insNs = nil, nil, nil
	for _, p := range t.pubs {
		if p != nil {
			p.dueNs = nil
		}
	}
}

// ok reports whether the trial ran to stable(∞) with its output decoded.
func (t *trial) ok() bool {
	return t != nil && t.live != nil && t.live.err == nil && len(t.latMs) > 0
}

func (t *trial) fail(format string, args ...any) {
	t.failures = append(t.failures, fmt.Sprintf(format, args...))
}

// latWindow is the span of arrival time over which one latency quantile is
// taken; a trial's quantile is the median over its windows.
const latWindow = 500 * time.Millisecond

// latency returns the q-quantile of delivery latency within each latWindow
// of arrivals, median over the windows. A host that preempts this machine's
// CPUs for milliseconds now and then (measurable as steal time) stalls a few
// windows; the median over windows keeps those episodes, which the per-layer
// tail reports, from deciding the run's figure.
func (t *trial) latency(q float64) float64 {
	var per []float64
	for lo := 0; lo < len(t.latMs); {
		w := (t.latNs[lo] - t.startNs) / int64(latWindow)
		hi := lo
		for hi < len(t.latMs) && (t.latNs[hi]-t.startNs)/int64(latWindow) == w {
			hi++
		}
		per = append(per, quantile(t.latMs[lo:hi], q))
		lo = hi
	}
	return median(per)
}

// mergedEPS is merged elements received per second from the first publish
// byte to the receipt of stable(∞).
func (t *trial) mergedEPS() float64 {
	return float64(t.live.frames) / (float64(t.live.infNs-t.startNs) / 1e9)
}

// cpuPerEl is server CPU µs per input element.
func (t *trial) cpuPerEl() float64 {
	return float64(t.cpuNs) / 1e3 / float64(t.inEls)
}

// runTrial connects the live subscriber and both publishers, drives the
// replicas at rate elements per second each, and waits for stable(∞) and
// both ACKs.
func runTrial(c *child, in *inputs, rate int, traced bool) *trial {
	t := &trial{inEls: in.elements()}
	t.attempted++ // live subscription
	s, err := dialSub(c.addr, 0)
	if err != nil {
		t.fail("live subscription: %v", err)
		return t
	}
	defer s.conn.Close()
	var pubs [2]*pubConn
	for r := range pubs {
		t.attempted += 2 // handshake, ACK
		h0 := time.Now()
		p, err := dialPub(c.addr)
		if err != nil {
			t.fail("publisher %d handshake: %v", r, err)
			return t
		}
		t.handshake = append(t.handshake, float64(time.Since(h0))/1e6)
		defer p.conn.Close()
		pubs[r] = p
	}
	cpu0, err := c.cpuNs()
	if err != nil {
		t.fail("server cpu: %v", err)
		return t
	}
	t.startNs = nowNs() + int64(time.Millisecond)
	var half chan struct{}
	if traced {
		half = make(chan struct{})
	}
	liveDone := make(chan *liveRun, 1)
	go func() { liveDone <- readLive(s, in) }()
	var wg sync.WaitGroup
	for r := range pubs {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			var h chan<- struct{}
			if r == 0 {
				h = half
			}
			t.pubs[r] = publish(pubs[r], in.reps[r], rate, traced, t.startNs, h)
		}(r)
	}
	timeout := time.After(150 * time.Second)
	if traced {
		select {
		case <-half:
			if t.mid, err = c.scrape(); err != nil {
				t.fail("mid-run scrape: %v", err)
			}
		case <-timeout:
		}
	}
	select {
	case t.live = <-liveDone:
	case <-timeout:
		s.conn.Close()
		t.live = <-liveDone
	}
	var ackNs int64
	for r, p := range pubs {
		select {
		case <-p.acked:
			ackNs = max(ackNs, p.ackNs.Load())
		case <-timeout:
			t.fail("publisher %d: no ACK", r)
		}
		if bad := p.bad.Load(); bad != nil {
			t.fail("publisher %d: %v", r, bad)
		}
	}
	cpu1, cerr := c.cpuNs()
	rss, rerr := c.peakRSSMiB()
	for _, p := range pubs {
		p.conn.Close()
	}
	wg.Wait()
	if cerr != nil || rerr != nil {
		t.fail("server /proc: %v %v", cerr, rerr)
	}
	t.cpuNs, t.rssMiB = cpu1-cpu0, rss
	if t.live.err == nil {
		t.live.err = t.live.decode(in)
	}
	if t.live.err != nil {
		t.fail("%v", t.live.err)
		return t
	}
	for r, p := range t.pubs {
		if p.err != nil {
			t.fail("publisher %d: %v", r, p.err)
		}
		for _, l := range p.late {
			t.lateMs = append(t.lateMs, float64(l)/1e6)
		}
	}
	for i, h := range t.live.insHist {
		due := min(t.pubs[0].dueNs[in.reps[0].insertAt[h]], t.pubs[1].dueNs[in.reps[1].insertAt[h]])
		t.latMs = append(t.latMs, float64(t.live.insNs[i]-due)/1e6)
		t.latNs = append(t.latNs, t.live.insNs[i])
	}
	return t
}
