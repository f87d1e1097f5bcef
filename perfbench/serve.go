package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/pkg/client"
)

// proc is one booted embedserver process.
type proc struct {
	cmd  *exec.Cmd
	base string // http://host:port
	done chan struct{}
}

// boot starts the server binary on a free loopback port with the given
// extra flags and returns once /healthz answers 200.
func boot(bin string, args ...string) (*proc, error) {
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0", "-no-log"}, args...)...)
	// A server outlives no benchmark, however the benchmark ends.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	p := &proc{cmd: cmd, done: make(chan struct{})}
	addrc := make(chan string, 1)
	go func() {
		// Read the announced address, then drain stdout until the process
		// exits so it never blocks on a full pipe.
		sc := bufio.NewScanner(out)
		const prefix = "embedserver: listening on "
		for sc.Scan() {
			if line := sc.Text(); strings.HasPrefix(line, prefix) {
				addrc <- strings.TrimPrefix(line, prefix)
			}
		}
		_, _ = io.Copy(io.Discard, out)
		_ = cmd.Wait()
		close(p.done)
	}()
	select {
	case addr := <-addrc:
		p.base = "http://" + addr
	case <-p.done:
		return nil, fmt.Errorf("%s exited before listening", bin)
	case <-time.After(30 * time.Second):
		p.stop()
		return nil, fmt.Errorf("%s did not announce its address", bin)
	}
	hc := &http.Client{Timeout: time.Second}
	for deadline := time.Now().Add(30 * time.Second); ; {
		resp, err := hc.Get(p.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return p, nil
			}
		}
		if time.Now().After(deadline) {
			p.stop()
			return nil, fmt.Errorf("%s: /healthz never answered 200", bin)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop terminates the server and waits until it has exited.
func (p *proc) stop() {
	if p == nil {
		return
	}
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
	case <-time.After(20 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.done
	}
}

// peakRSSMB reads the server's peak resident set (VmHWM) in MiB.
func (p *proc) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", p.cmd.Process.Pid)
}

// clockTicks is the kernel's USER_HZ, the unit of /proc/<pid>/stat times.
const clockTicks = 100

// cpuSeconds reads the server's user plus system CPU time.
func (p *proc) cpuSeconds() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The fields after the parenthesized command name start at field 3
	// (state); utime and stime are fields 14 and 15.
	_, rest, _ := strings.Cut(string(b), ") ")
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", p.cmd.Process.Pid)
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc/%d/stat times %q %q", p.cmd.Process.Pid, f[11], f[12])
	}
	return (utime + stime) / clockTicks, nil
}

// promSample is a parsed /metrics exposition: series (name plus label
// set, as printed) to value.
type promSample map[string]float64

// scrape reads the server's /metrics endpoint.
func scrape(ctx context.Context, c *client.Client) (promSample, error) {
	text, err := c.RawMetrics(ctx)
	if err != nil {
		return nil, fmt.Errorf("scrape /metrics: %w", err)
	}
	s := promSample{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		s[line[:i]] = v
	}
	return s, nil
}

// sum adds every series of the named metric whose label set contains all
// of the given label matchers (e.g. `endpoint="plan"`).
func (s promSample) sum(name string, labels ...string) float64 {
	var t float64
	for k, v := range s {
		series, lbl, _ := strings.Cut(k, "{")
		if series != name {
			continue
		}
		ok := true
		for _, l := range labels {
			ok = ok && strings.Contains(lbl, l)
		}
		if ok {
			t += v
		}
	}
	return t
}

// delta returns after − before for one metric.
func delta(before, after promSample, name string, labels ...string) float64 {
	return after.sum(name, labels...) - before.sum(name, labels...)
}

// mergeProm adds two samples series by series (two servers' counters).
func mergeProm(a, b promSample) promSample {
	out := promSample{}
	for k, v := range a {
		out[k] += v
	}
	for k, v := range b {
		out[k] += v
	}
	return out
}
