package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"time"

	"lmerge/internal/wire"
)

// child is one lmserved process serving on loopback. It is started with
// "-addr 127.0.0.1:0 -http 127.0.0.1:0" and learns both bound addresses from
// the lines lmserved prints once it is constructed (after recovery).
type child struct {
	cmd  *exec.Cmd
	addr string // merge listener
	http string // -http listener
	done chan struct{}

	mu  sync.Mutex
	log strings.Builder // stderr, for failure reports
}

// children are the lmserved processes still running, so a benchmark that
// gives up can stop them before it exits.
var children = struct {
	sync.Mutex
	m map[*child]bool
}{m: map[*child]bool{}}

// killChildren kills every running child and waits for each to exit.
func killChildren() {
	children.Lock()
	var cs []*child
	for c := range children.m {
		cs = append(cs, c)
	}
	children.Unlock()
	for _, c := range cs {
		c.kill()
	}
}

// startChild execs lmserved serve with flags and waits until both listeners
// are announced.
func startChild(bin string, flags []string, env []string) (*child, error) {
	args := append([]string{"serve", "-addr", "127.0.0.1:0", "-http", "127.0.0.1:0"}, flags...)
	c := &child{cmd: exec.Command(bin, args...), done: make(chan struct{})}
	c.cmd.Env = env
	stderr, err := c.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := c.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start lmserved: %w", err)
	}
	children.Lock()
	children.m[c] = true
	children.Unlock()
	ready := make(chan [2]string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		var addr, httpAddr string
		for sc.Scan() {
			line := sc.Text()
			c.mu.Lock()
			c.log.WriteString(line + "\n")
			c.mu.Unlock()
			if i := strings.Index(line, ") on "); i >= 0 && strings.Contains(line, "ctrl-c") {
				addr = strings.Fields(line[i+len(") on "):])[0]
			}
			if i := strings.Index(line, "metrics on http://"); i >= 0 {
				httpAddr = strings.TrimSuffix(strings.Fields(line[i+len("metrics on http://"):])[0], "/metrics,")
				ready <- [2]string{addr, httpAddr}
			}
		}
		io.Copy(io.Discard, stderr)
		c.cmd.Wait()
		children.Lock()
		delete(children.m, c)
		children.Unlock()
		close(c.done)
	}()
	select {
	case a := <-ready:
		c.addr, c.http = a[0], a[1]
		return c, nil
	case <-c.done:
		return nil, fmt.Errorf("lmserved exited during start-up: %s", c.stderr())
	case <-time.After(90 * time.Second):
		c.kill()
		return nil, fmt.Errorf("lmserved did not announce its listeners: %s", c.stderr())
	}
}

func (c *child) stderr() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.log.String()
}

func (c *child) pid() int { return c.cmd.Process.Pid }

// stop delivers SIGINT (lmserved's graceful shutdown, which writes the final
// checkpoint under -data-dir) and waits for the process to exit.
func (c *child) stop() error {
	c.cmd.Process.Signal(os.Interrupt)
	select {
	case <-c.done:
		return nil
	case <-time.After(60 * time.Second):
		c.kill()
		return fmt.Errorf("lmserved ignored SIGINT for 60s")
	}
}

func (c *child) kill() {
	c.cmd.Process.Kill()
	<-c.done
}

// hostCPU reads the machine-wide steal and total jiffies from /proc/stat:
// time the hypervisor gave this machine's CPUs to someone else.
func hostCPU() (steal, total int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	f := strings.Fields(strings.SplitN(string(b), "\n", 2)[0])
	for i, v := range f[1:] {
		n, _ := strconv.ParseInt(v, 10, 64)
		if i < 8 { // user nice system idle iowait irq softirq steal
			total += n
		}
		if i == 7 {
			steal = n
		}
	}
	return steal, total
}

// cpuNs is the child's user+system CPU time so far. /proc counts it in clock
// ticks of 10ms (USER_HZ is 100 on Linux).
func (c *child) cpuNs() (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", c.pid()))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; fields restart after its ')'.
	f := strings.Fields(string(b[strings.LastIndexByte(string(b), ')')+1:]))
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parse /proc stat: %q", b)
	}
	return (ut + st) * 1e7, nil
}

// peakRSSMiB is the child's VmHWM.
func (c *child) peakRSSMiB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", c.pid()))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			kb, err := strconv.ParseFloat(strings.Fields(line)[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}

// scrape fetches the child's /metrics document.
func (c *child) scrape() (map[string]any, error) {
	cl := http.Client{Timeout: 10 * time.Second}
	resp, err := cl.Get("http://" + c.http + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var doc map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return nil, fmt.Errorf("decode /metrics: %w", err)
	}
	return doc, nil
}

// dialHello opens a v2 connection, sends the preamble and hello frame, and
// waits for the OK reply. It returns the reader positioned after OK.
func dialHello(addr string, hello []byte) (net.Conn, *wire.Reader, int64, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, nil, 0, err
	}
	if _, err := conn.Write(append(wire.AppendPreamble(nil), hello...)); err != nil {
		conn.Close()
		return nil, nil, 0, err
	}
	fr := wire.NewReader(bufio.NewReaderSize(conn, 256<<10))
	conn.SetReadDeadline(time.Now().Add(90 * time.Second))
	typ, body, err := fr.Next()
	conn.SetReadDeadline(time.Time{})
	if err != nil {
		conn.Close()
		return nil, nil, 0, fmt.Errorf("handshake: %w", err)
	}
	if typ != wire.FrOK {
		conn.Close()
		return nil, nil, 0, fmt.Errorf("handshake refused: frame 0x%02x %q", typ, body)
	}
	id, _, err := wire.ParseOK(body)
	if err != nil {
		conn.Close()
		return nil, nil, 0, err
	}
	return conn, fr, id, nil
}

// launch starts lmserved and completes one subscriber handshake, returning
// the time from exec to the OK frame: the server is ready only when it
// answers, not when its port accepts (recovery runs between the two).
func launch(bin string, flags, env []string) (*child, float64, error) {
	t := time.Now()
	c, err := startChild(bin, flags, env)
	if err != nil {
		return nil, 0, err
	}
	conn, _, _, err := dialHello(c.addr, wire.AppendHelloSub(nil, 0, 0))
	if err != nil {
		c.kill()
		return nil, 0, fmt.Errorf("%w: %s", err, c.stderr())
	}
	d := time.Since(t).Seconds()
	conn.Close()
	return c, d, nil
}
