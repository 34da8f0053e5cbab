package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/index"
	"repro/internal/persist"
	"repro/internal/server"
	"repro/internal/topk"
)

// daemon is one spawned permserve or permrouter process on loopback.
type daemon struct {
	name   string
	cmd    *exec.Cmd
	url    string        // http://127.0.0.1:<port>
	copied chan struct{} // closed once the daemon's stderr is fully copied
}

// running tracks every daemon started and not yet stopped, so an aborted
// run still stops them all.
var running struct {
	sync.Mutex
	set map[*daemon]bool
}

// startDaemon spawns bin with args, logging to logPath, and returns once
// the daemon has logged its bound address. It does not wait for health.
func startDaemon(name, bin, logPath string, env []string, args ...string) (*daemon, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Env = append(os.Environ(), env...)
	cmd.Stdout = logf
	// If this process dies without stopping its daemons, the kernel does.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		logf.Close()
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	d := &daemon{name: name, cmd: cmd, copied: make(chan struct{})}
	running.Lock()
	if running.set == nil {
		running.set = map[*daemon]bool{}
	}
	running.set[d] = true
	running.Unlock()

	addr := make(chan string, 1)
	go func() {
		defer close(d.copied)
		defer logf.Close()
		sc := bufio.NewScanner(stderr)
		found := false
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(logf, line)
			if i := strings.Index(line, "listening on http://"); i >= 0 && !found {
				found = true
				rest := line[i+len("listening on "):]
				if j := strings.IndexByte(rest, ' '); j >= 0 {
					rest = rest[:j]
				}
				addr <- rest
			}
		}
		// Keep draining until EOF: an unread pipe would block the daemon.
		_, _ = io.Copy(logf, stderr)
		if !found {
			close(addr)
		}
	}()
	select {
	case u, ok := <-addr:
		if !ok {
			d.stop()
			return nil, fmt.Errorf("%s exited before listening; see %s", name, logPath)
		}
		d.url = u
		return d, nil
	case <-time.After(2 * time.Minute):
		d.stop()
		return nil, fmt.Errorf("%s did not listen within 2m; see %s", name, logPath)
	}
}

// waitHealthy polls /healthz until it answers 200.
func (d *daemon) waitHealthy(ctx context.Context) error {
	deadline := time.Now().Add(2 * time.Minute)
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.url+"/healthz", nil)
		if err != nil {
			return err
		}
		resp, err := control.Do(req)
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) || ctx.Err() != nil {
			return fmt.Errorf("%s not healthy: %v", d.name, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// peakRSSMB reads the daemon's peak resident set (VmHWM) in MB.
func (d *daemon) peakRSSMB() (float64, error) {
	blob, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(blob), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" && f[2] == "kB" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("%s: no VmHWM in /proc status", d.name)
}

// stop terminates the daemon gracefully, killing it if it lingers, and
// waits until it has exited. Safe to call twice.
func (d *daemon) stop() {
	running.Lock()
	live := running.set[d]
	delete(running.set, d)
	running.Unlock()
	if !live {
		return
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.copied:
	case <-time.After(15 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.copied
	}
	_ = d.cmd.Wait()
}

// stopAll stops every daemon still running.
func stopAll() {
	running.Lock()
	var ds []*daemon
	for d := range running.set {
		ds = append(ds, d)
	}
	running.Unlock()
	for _, d := range ds {
		d.stop()
	}
}

// control is the client for set-up, checks and the traced pass; the load
// generator has its own.
var control = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}, Timeout: time.Minute}

// hit is one neighbor on the wire.
type hit struct {
	ID   uint32  `json:"id"`
	Dist float64 `json:"dist"`
}

// searchReply is the part of a search answer the benchmark checks.
type searchReply struct {
	Results []hit `json:"results"`
	Partial bool  `json:"partial"`
}

// post sends body to url with c and decodes a 2xx JSON reply into out (nil
// discards it).
func post(ctx context.Context, c *http.Client, url string, body []byte, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	return do(c, req, out)
}

// get fetches url with c and decodes a 2xx JSON reply into out.
func get(ctx context.Context, c *http.Client, url string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	return do(c, req, out)
}

func do(c *http.Client, req *http.Request, out any) error {
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s %s: %s: %s", req.Method, req.URL.Path, resp.Status, bytes.TrimSpace(blob))
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(blob, out)
}

// sameAnswer reports whether a served answer equals the reference exactly:
// same ids, same distances, same order.
func sameAnswer(got []hit, want []topk.Neighbor) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i].ID != want[i].ID || got[i].Dist != want[i].Dist {
			return false
		}
	}
	return true
}

// recallAt is the share of truth's ids present in got.
func recallAt(got []topk.Neighbor, truth []topk.Neighbor) float64 {
	if len(truth) == 0 {
		return 1
	}
	in := make(map[uint32]bool, len(truth))
	for _, t := range truth {
		in[t.ID] = true
	}
	n := 0
	for _, g := range got {
		if in[g.ID] {
			n++
		}
	}
	return float64(n) / float64(len(truth))
}

// saveIndex writes one servable index: <dir>/<name>.psix and its sidecar
// manifest.
func saveIndex[T any](dir, name string, idx index.Index[T], man server.Manifest) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := persist.SaveFile(filepath.Join(dir, name+persist.Ext), idx); err != nil {
		return err
	}
	blob, err := json.Marshal(man)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name+".json"), blob, 0o644)
}
