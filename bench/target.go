package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// target is one running instance of the system under test.
type target struct {
	addr string
	// pid is the process whose CPU time and peak RSS are reported.
	pid int
	// setup is the time from start to the first 200 from /readyz.
	setup time.Duration
	stop  func() error
}

// launcher starts fresh instances of the system under test.
type launcher interface {
	start() (*target, error)
}

// procLauncher execs the recipeserver binary with the fixture stores
// and every other flag at its default, so boot includes everything a
// default deployment does (model load, snapshot load and sharding, and
// the -corpus boot-time mining).
type procLauncher struct {
	bin      string
	storeDir string
	snapDir  string
	logPath  string
}

// live tracks started servers, by pid, with a function that kills one
// and waits for it to end, so a signal to the benchmark can stop them
// before it exits.
var live struct {
	sync.Mutex
	kill map[int]func()
}

func track(pid int, kill func()) {
	live.Lock()
	defer live.Unlock()
	if live.kill == nil {
		live.kill = map[int]func(){}
	}
	if kill != nil {
		live.kill[pid] = kill
	} else {
		delete(live.kill, pid)
	}
}

// killLive kills every tracked server and waits for each to end.
func killLive() {
	live.Lock()
	var kills []func()
	for _, k := range live.kill {
		kills = append(kills, k)
	}
	live.Unlock()
	for _, k := range kills {
		k()
	}
}

// freeAddr returns a loopback address with a port that was free a
// moment ago.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

func (l procLauncher) start() (*target, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	logf, err := os.OpenFile(l.logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(l.bin, "-addr", addr, "-store", l.storeDir, "-snapshots", l.snapDir)
	cmd.Stdout, cmd.Stderr = logf, logf
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", l.bin, err)
	}
	// exited closes once the process has ended; waitErr is then its
	// exit status.
	exited := make(chan struct{})
	var waitErr error
	go func() {
		waitErr = cmd.Wait()
		close(exited)
	}()
	pid := cmd.Process.Pid
	track(pid, func() {
		_ = cmd.Process.Kill()
		<-exited
	})
	stop := func() error {
		defer logf.Close()
		defer track(pid, nil)
		_ = cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-exited:
			return waitErr
		case <-time.After(30 * time.Second):
			_ = cmd.Process.Kill()
			<-exited
			return errors.New("server ignored SIGTERM for 30s; killed")
		}
	}
	if err := waitReady(addr, exited, 2*time.Minute); err != nil {
		_ = stop()
		return nil, fmt.Errorf("%w (server log: %s)", err, l.logPath)
	}
	return &target{addr: addr, pid: pid, setup: time.Since(t0), stop: stop}, nil
}

// waitReady polls /readyz every millisecond until it answers 200, the
// process exits, or the timeout passes.
func waitReady(addr string, exited <-chan struct{}, timeout time.Duration) error {
	client := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(timeout)
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	for time.Now().Before(deadline) {
		resp, err := client.Get("http://" + addr + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-exited:
			return errors.New("server exited during boot")
		case <-tick.C:
		}
	}
	return fmt.Errorf("server not ready after %v", timeout)
}

// readyz is the part of the /readyz payload the benchmark reads.
// Missing fields decode as zero, so a leaner /readyz does not break a run.
type readyz struct {
	Cache struct {
		Hits      int64 `json:"hits"`
		Evictions int64 `json:"evictions"`
		Entries   int64 `json:"entries"`
	} `json:"cache"`
}

// decodes estimates fresh decodes since boot: every successful decode
// Puts a new key, which either still sits in the cache or was evicted.
func (r readyz) decodes() int64 { return r.Cache.Entries + r.Cache.Evictions }

func getReadyz(addr string) (readyz, []byte, error) {
	var r readyz
	client := &http.Client{Timeout: 10 * time.Second}
	resp, err := client.Get("http://" + addr + "/readyz")
	if err != nil {
		return r, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return r, nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return r, body, fmt.Errorf("/readyz answered %d", resp.StatusCode)
	}
	return r, body, json.Unmarshal(body, &r)
}

// procCPU returns the process's user+system CPU time from
// /proc/<pid>/stat (fields 14 and 15, in USER_HZ = 100 ticks/s).
func procCPU(pid int) (time.Duration, error) {
	data, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(pid), "stat"))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields resume after ')'.
	i := bytes.LastIndexByte(data, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	f := strings.Fields(string(data[i+1:]))
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return time.Duration(utime+stime) * 10 * time.Millisecond, nil
}

// peakRSS returns the process's VmHWM from /proc/<pid>/status, in MB.
func peakRSS(pid int) (float64, error) {
	data, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(pid), "status"))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}
