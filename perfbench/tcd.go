package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// tcdProc is one tcd daemon started by the benchmark. Its stderr (one
// structured log line per request) is drained continuously and only the
// tail is kept, for error reports.
type tcdProc struct {
	cmd     *exec.Cmd
	base    string // http://127.0.0.1:port
	started time.Time
	exited  chan struct{}
	waitErr error

	mu   sync.Mutex
	tail []string
}

// startTCD launches bin with args plus a free loopback -addr.
func startTCD(bin string, args []string) (*tcdProc, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append(append([]string(nil), args...), "-addr", addr, "-drain", "0s")...)
	// If the benchmark dies before stop runs, the kernel ends tcd too.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	p := &tcdProc{cmd: cmd, base: "http://" + addr, exited: make(chan struct{})}
	p.started = time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start tcd: %w", err)
	}
	go func() {
		sc := bufio.NewScanner(stderr)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		for sc.Scan() {
			p.mu.Lock()
			p.tail = append(p.tail, sc.Text())
			if len(p.tail) > 40 {
				p.tail = p.tail[len(p.tail)-20:]
			}
			p.mu.Unlock()
		}
		io.Copy(io.Discard, stderr)
		p.waitErr = cmd.Wait()
		close(p.exited)
	}()
	return p, nil
}

func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("pick a free port: %w", err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr, nil
}

// logTail returns the last lines tcd wrote to stderr.
func (p *tcdProc) logTail() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := len(p.tail)
	if n > 8 {
		n = 8
	}
	return strings.Join(p.tail[len(p.tail)-n:], "\n")
}

// waitFirstAnswer polls GET /transitivity until tcd answers it and returns
// the time from launch to that answer. The answer forces the lazy base
// count, so this is boot plus the first query's cost.
func (p *tcdProc) waitFirstAnswer(c *http.Client, timeout time.Duration) (time.Duration, error) {
	deadline := p.started.Add(timeout)
	for time.Now().Before(deadline) {
		select {
		case <-p.exited:
			return 0, fmt.Errorf("tcd exited during boot (%v):\n%s", p.waitErr, p.logTail())
		default:
		}
		resp, err := c.Get(p.base + "/transitivity")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return time.Since(p.started), nil
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	return 0, fmt.Errorf("tcd did not answer within %v:\n%s", timeout, p.logTail())
}

// peakRSSMB reads tcd's VmHWM while it is still running.
func (p *tcdProc) peakRSSMB() (float64, error) {
	return vmHWMMB(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
}

// stop ends tcd with SIGTERM (its graceful drain) and falls back to
// SIGKILL; it returns only once the process has exited.
func (p *tcdProc) stop() {
	select {
	case <-p.exited:
		return
	default:
	}
	p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.exited:
	case <-time.After(10 * time.Second):
		p.cmd.Process.Kill()
		<-p.exited
	}
}

// vmHWMMB parses the VmHWM line of a /proc status file, in MiB.
func vmHWMMB(path string) (float64, error) {
	b, err := os.ReadFile(path)
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
	return 0, errors.New("no VmHWM in " + path)
}

// newClient returns an HTTP client holding at most conns keep-alive
// connections to one host.
func newClient(conns int) *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			MaxIdleConnsPerHost: conns,
			MaxConnsPerHost:     conns,
			DisableCompression:  true,
		},
		Timeout: 60 * time.Second,
	}
}

// call issues one request and decodes a 200 answer into out.
func call(c *http.Client, method, url string, body []byte, out any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s %s: status %d: %s", method, url, resp.StatusCode, strings.TrimSpace(string(raw)))
	}
	return json.Unmarshal(raw, out)
}

// tcdStats is the part of GET /stats the benchmark reads.
type tcdStats struct {
	Cluster struct {
		Queries             int64 `json:"queries"`
		Rebuilds            int64 `json:"rebuilds"`
		IncrementalRebuilds int64 `json:"incremental_rebuilds"`
	} `json:"cluster"`
	Scheduler struct {
		ReadEpochs       int64 `json:"read_epochs"`
		WriteEpochs      int64 `json:"write_epochs"`
		CoalescedBatches int64 `json:"coalesced_batches"`
	} `json:"scheduler"`
	Persist struct {
		Snapshots      int64 `json:"snapshots"`
		DeltaSnapshots int64 `json:"delta_snapshots"`
	} `json:"persist"`
}

func readStats(c *http.Client, base string) (tcdStats, error) {
	var s tcdStats
	err := call(c, http.MethodGet, base+"/stats", nil, &s)
	return s, err
}
