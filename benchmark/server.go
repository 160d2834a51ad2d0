package main

import (
	"bufio"
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

// server is one spawned xqserve on a loopback port, logging to a file in the
// run's scratch directory.
type server struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:port
	log    string
	exited chan struct{} // closed once Wait has returned
}

// children tracks every live child so that any exit path — normal return,
// error, SIGINT — can kill them. Pdeathsig covers the paths that skip it.
var children struct {
	sync.Mutex
	live map[*server]bool
}

func killAllChildren() {
	children.Lock()
	var all []*server
	for s := range children.live {
		all = append(all, s)
	}
	children.Unlock()
	for _, s := range all {
		s.kill()
	}
}

// freePort asks the kernel for an unused loopback port. The listener is
// closed before the server binds it, so another process could take the port
// in between; startServer then fails its readiness poll and the run reports
// the failure instead of hanging.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

const (
	readyTimeout = 20 * time.Second
	serverShards = 4 // the geometry of the ROADMAP probe; the traced run's in-process twin uses the same
)

// startServer spawns `bin -waldir walDir -shards 4 -addr …` and returns once /healthz
// answers. Restarting on a walDir that already holds logs is crash recovery.
func startServer(bin, walDir, logPath string) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, fmt.Errorf("picking a port: %w", err)
	}
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	cmd := exec.Command(bin, "-waldir", walDir, "-shards", fmt.Sprint(serverShards), "-addr", addr)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	s := &server{cmd: cmd, base: "http://" + addr, log: logPath, exited: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // a killed child's status is not news
		close(s.exited)
	}()
	children.Lock()
	if children.live == nil {
		children.live = map[*server]bool{}
	}
	children.live[s] = true
	children.Unlock()

	deadline := time.Now().Add(readyTimeout)
	probe := &http.Client{Timeout: time.Second}
	for {
		resp, err := probe.Get(s.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		select {
		case <-s.exited:
			return nil, fmt.Errorf("xqserve exited before it was ready (log: %s)", s.tailLog())
		default:
		}
		if time.Now().After(deadline) {
			s.kill()
			return nil, fmt.Errorf("xqserve not ready within %v (log: %s)", readyTimeout, s.tailLog())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// kill sends SIGKILL and waits for the process to be reaped. Safe to call
// twice and on a server that already died.
func (s *server) kill() {
	_ = s.cmd.Process.Kill() // already-exited is fine
	<-s.exited
	children.Lock()
	delete(children.live, s)
	children.Unlock()
}

// peakRSSMB reads the server's resident-set high-water mark from /proc.
func (s *server) peakRSSMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM line in /proc status")
}

func (s *server) tailLog() string {
	b, err := os.ReadFile(s.log)
	if err != nil {
		return err.Error()
	}
	if len(b) > 600 {
		b = b[len(b)-600:]
	}
	return strings.TrimSpace(string(b))
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.Mode().IsRegular() {
			total += info.Size()
		}
		return nil
	})
	return total, err
}
