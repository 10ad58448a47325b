package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one running nsserve process.
type daemon struct {
	cmd     *exec.Cmd
	base    string        // http://host:port
	done    chan struct{} // closed when the process has exited
	waitErr error
}

// startDaemon launches nsserve with args plus an ephemeral loopback
// address, and returns once the daemon has written its bound address.
// It does not wait for any request to be answered.
func startDaemon(bin, dir, name string, args []string) (*daemon, error) {
	addrFile := filepath.Join(dir, name+".addr")
	if err := os.Remove(addrFile); err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, err
	}
	logf, err := os.Create(filepath.Join(dir, name+".log"))
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	args = append([]string{"-addr", "127.0.0.1:0", "-addr-file", addrFile}, args...)
	d := &daemon{cmd: exec.Command(bin, args...), done: make(chan struct{})}
	d.cmd.Stdout, d.cmd.Stderr = logf, logf
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start nsserve: %w", err)
	}
	go func() {
		d.waitErr = d.cmd.Wait()
		close(d.done)
	}()
	deadline := time.Now().Add(60 * time.Second)
	for {
		if b, err := os.ReadFile(addrFile); err == nil && len(b) > 0 {
			d.base = "http://" + strings.TrimSpace(string(b))
			return d, nil
		}
		select {
		case <-d.done:
			return nil, fmt.Errorf("nsserve exited before listening (%v); see %s.log", d.waitErr, name)
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			d.kill()
			return nil, fmt.Errorf("nsserve did not listen within 60s")
		}
	}
}

// kill sends SIGKILL and waits for the process to exit.
func (d *daemon) kill() {
	_ = d.cmd.Process.Kill() // fails only when the process already exited
	<-d.done
}

// stop asks for a graceful shutdown and waits, killing after 30s.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(30 * time.Second):
		d.kill()
	}
}

// peakRSSMB reads the daemon's VmHWM from /proc.
func (d *daemon) peakRSSMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", d.cmd.Process.Pid)
}

// newClient returns a client holding at most one connection, so the
// number of clients is the number of connections.
func newClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
		Timeout:   60 * time.Second,
	}
}

// call sends one request and reads the whole body.
func call(c *http.Client, base, method, url string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, base+url, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// getJSON GETs url and decodes a 200 answer into v.
func getJSON(c *http.Client, base, url string, v any) error {
	code, b, err := call(c, base, "GET", url, nil)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("GET %s: status %d: %s", url, code, bytes.TrimSpace(b))
	}
	return json.Unmarshal(b, v)
}

// counters is one scrape of the daemon's /debug/metrics and the
// memstats on /debug/vars.
type counters struct {
	metrics    map[string]int64
	totalAlloc uint64
	numGC      uint32
}

func scrape(c *http.Client, base string) (counters, error) {
	var s counters
	if err := getJSON(c, base, "/debug/metrics", &s.metrics); err != nil {
		return s, err
	}
	var vars struct {
		Memstats struct {
			TotalAlloc uint64
			NumGC      uint32
		} `json:"memstats"`
	}
	if err := getJSON(c, base, "/debug/vars", &vars); err != nil {
		return s, err
	}
	s.totalAlloc, s.numGC = vars.Memstats.TotalAlloc, vars.Memstats.NumGC
	return s, nil
}

// delta is the change between two scrapes.
type delta struct {
	m     map[string]int64
	alloc float64 // bytes
	gc    float64
}

func diff(a, b counters) delta {
	d := delta{m: map[string]int64{}, alloc: float64(b.totalAlloc - a.totalAlloc), gc: float64(b.numGC - a.numGC)}
	for k, v := range b.metrics {
		d.m[k] = v - a.metrics[k]
	}
	return d
}

func (d delta) get(name string) float64 { return float64(d.m[name]) }

// timerMS is a daemon timer's mean in ms over the interval.
func (d delta) timerMS(name string) float64 {
	return ratio(d.get(name+".ns"), d.get(name+".count")) / 1e6
}
