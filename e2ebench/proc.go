package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// dlserve is one running dlserve process.
type dlserve struct {
	cmd    *exec.Cmd
	addr   string
	drain  chan struct{} // closed when stdout reaches EOF
	stderr *tail
}

// tail keeps the last bytes written to it: dlserve's request log goes
// through a pipe into memory, not to disk, and only its end is kept for
// error reports.
type tail struct {
	mu  sync.Mutex
	buf []byte
}

const tailBytes = 4 << 10

func (t *tail) Write(p []byte) (int, error) {
	t.mu.Lock()
	t.buf = append(t.buf, p...)
	if len(t.buf) > 2*tailBytes {
		t.buf = append(t.buf[:0], t.buf[len(t.buf)-tailBytes:]...)
	}
	t.mu.Unlock()
	return len(p), nil
}

func (t *tail) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.buf) > tailBytes {
		return string(t.buf[len(t.buf)-tailBytes:])
	}
	return string(t.buf)
}

// startDlserve execs the binary and waits until /readyz answers 200,
// returning the process and the time from exec to readiness.
func startDlserve(ctx context.Context, bin string, args []string) (*dlserve, time.Duration, error) {
	errTail := &tail{}
	cmd := exec.Command(bin, args...)
	cmd.Stderr = errTail
	// dlserve dies with the benchmark even when the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start dlserve: %w", err)
	}
	d := &dlserve{cmd: cmd, drain: make(chan struct{}), stderr: errTail}
	br := bufio.NewReader(out)
	line, err := br.ReadString('\n')
	go func() {
		io.Copy(io.Discard, br)
		close(d.drain)
	}()
	const marker = "serving http://"
	i := strings.Index(line, marker)
	if err != nil || i < 0 {
		d.stop()
		return nil, 0, fmt.Errorf("dlserve did not report its address (stdout %q, read error %v); stderr ends:\n%s", line, err, errTail)
	}
	d.addr = strings.SplitN(line[i+len(marker):], "/", 2)[0]

	hc := &http.Client{Timeout: 5 * time.Second}
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := hc.Get("http://" + d.addr + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(t0), nil
			}
		}
		if time.Now().After(deadline) || ctx.Err() != nil {
			d.stop()
			return nil, 0, fmt.Errorf("dlserve at %s not ready after 60s (last error %v)", d.addr, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop kills the process and waits until it and its output copier ended.
func (d *dlserve) stop() {
	d.cmd.Process.Kill()
	<-d.drain
	d.cmd.Wait()
}

// peakRSSMB reads the process's VmHWM (peak resident set) in MiB.
func (d *dlserve) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", d.cmd.Process.Pid)
}

// scrape is one reading of dlserve's /metrics counters and Go memstats.
type scrape struct {
	metrics map[string]float64 // unlabeled Prometheus samples
	alloc   float64            // memstats TotalAlloc (bytes)
	numGC   float64
}

func (d *dlserve) scrape() (*scrape, error) {
	hc := &http.Client{Timeout: 10 * time.Second}
	sc := &scrape{metrics: make(map[string]float64)}
	resp, err := hc.Get("http://" + d.addr + "/metrics")
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 2 || strings.ContainsRune(f[0], '{') {
			continue
		}
		if v, err := strconv.ParseFloat(f[1], 64); err == nil {
			sc.metrics[f[0]] = v
		}
	}
	resp, err = hc.Get("http://" + d.addr + "/debug/vars")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var vars struct {
		Memstats struct {
			TotalAlloc float64
			NumGC      float64
		} `json:"memstats"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&vars); err != nil {
		return nil, fmt.Errorf("/debug/vars: %w", err)
	}
	sc.alloc, sc.numGC = vars.Memstats.TotalAlloc, vars.Memstats.NumGC
	return sc, nil
}

// delta returns after-before for a counter.
func delta(before, after *scrape, name string) float64 {
	return after.metrics[name] - before.metrics[name]
}
