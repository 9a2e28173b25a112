package main

import (
	"bufio"
	"fmt"
	"io"
	"io/fs"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"rfview/internal/client"
)

// serverProc is one rfserverd child process.
type serverProc struct {
	cmd  *exec.Cmd
	addr string
	dir  string
	done chan struct{}
}

// startServer launches rfserverd on an ephemeral loopback port and waits
// for its ready line. The server runs at the default GOMAXPROCS: only the
// load process is pinned to one P.
func startServer(bin, dataDir, logPath string, flags []string) (*serverProc, error) {
	args := append([]string{"-addr", "127.0.0.1:0", "-data-dir", dataDir}, flags...)
	cmd := exec.Command(bin, args...)
	cmd.Env = serverEnv()
	// The server dies with the benchmark even if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	cmd.Stderr = logf
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start rfserverd: %w", err)
	}
	p := &serverProc{cmd: cmd, dir: dataDir, done: make(chan struct{})}
	live.add(p)
	ready := make(chan string, 1)
	go func() {
		defer close(p.done)
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), "rfserverd listening on "); ok {
				ready <- a
			}
		}
		_, _ = io.Copy(io.Discard, out)
	}()
	select {
	case p.addr = <-ready:
		return p, nil
	case <-p.done:
		_ = cmd.Wait()
		return nil, fmt.Errorf("rfserverd exited before listening (see %s)", logPath)
	case <-time.After(60 * time.Second):
		p.kill()
		return nil, fmt.Errorf("rfserverd not ready after 60s (see %s)", logPath)
	}
}

// serverEnv is the child environment without any GOMAXPROCS override, so
// the server sizes itself to the host.
func serverEnv() []string {
	var env []string
	for _, kv := range os.Environ() {
		if !strings.HasPrefix(kv, "GOMAXPROCS=") {
			env = append(env, kv)
		}
	}
	return env
}

// kill sends SIGKILL and waits for the process and its stdout reader to
// end. It is safe to call more than once.
func (p *serverProc) kill() {
	if p == nil || p.cmd.ProcessState != nil {
		return
	}
	_ = p.cmd.Process.Kill()
	<-p.done
	_ = p.cmd.Wait()
	live.remove(p)
}

// live is the set of servers started and not yet killed, so a signal
// handler can stop them all before the benchmark exits.
var live = &serverSet{procs: map[*serverProc]struct{}{}}

type serverSet struct {
	mu    sync.Mutex
	procs map[*serverProc]struct{}
}

func (s *serverSet) add(p *serverProc) {
	s.mu.Lock()
	s.procs[p] = struct{}{}
	s.mu.Unlock()
}

func (s *serverSet) remove(p *serverProc) {
	s.mu.Lock()
	delete(s.procs, p)
	s.mu.Unlock()
}

// killAll SIGKILLs every live server and waits, up to a few seconds each,
// until its stdout closes, which happens when it has exited.
func (s *serverSet) killAll() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for p := range s.procs {
		_ = p.cmd.Process.Kill()
		select {
		case <-p.done:
		case <-time.After(5 * time.Second):
		}
	}
}

func (p *serverProc) pid() int { return p.cmd.Process.Pid }

// countingConn counts the bytes the client reads off the wire, so the
// traced run can report response sizes.
type countingConn struct {
	net.Conn
	read atomic.Int64
}

func (c *countingConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.read.Add(int64(n))
	return n, err
}

func dial(addr string) (*client.Client, *countingConn, error) {
	conn, err := net.DialTimeout("tcp", addr, 10*time.Second)
	if err != nil {
		return nil, nil, err
	}
	cc := &countingConn{Conn: conn}
	return client.NewClient(cc), cc, nil
}

// cpuTicks returns utime+stime of pid in clock ticks (/proc/<pid>/stat
// fields 14 and 15).
func cpuTicks(pid int) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may contain spaces; fields resume after its ')'.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parse /proc/%d/stat", pid)
	}
	return ut + st, nil
}

// clockTick is USER_HZ, which Linux fixes at 100 for /proc accounting.
const clockTick = 100

// peakRSSKiB reads VmHWM of pid.
func peakRSSKiB(pid int) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(v)
			if len(f) > 0 {
				return strconv.ParseInt(f[0], 10, 64)
			}
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// stealTicks reads the host-wide steal counter from /proc/stat (0 when the
// kernel does not report one).
func stealTicks() int64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	v, _ := strconv.ParseInt(f[8], 10, 64)
	return v
}

// dirBytes sums regular-file sizes under dir, skipping the scratch
// subdirectory skip (spill runs and heap page files, which are not durable
// state).
func dirBytes(dir, skip string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && skip != "" && path == filepath.Join(dir, skip) {
			return filepath.SkipDir
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			n += info.Size()
		}
		return nil
	})
	return n, err
}

// copyDir copies the regular files of src into dst, recreating its tree.
func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		if !d.Type().IsRegular() {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, b, 0o644)
	})
}
