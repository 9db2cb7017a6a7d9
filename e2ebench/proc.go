package main

import (
	"bufio"
	"context"
	"fmt"
	"io/fs"
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

// clockTicks is USER_HZ, the unit of utime/stime in /proc/<pid>/stat; it
// is 100 on every Linux architecture Go supports.
const clockTicks = 100

// daemon is one exec'd itagd process.
type daemon struct {
	cmd   *exec.Cmd
	api   string // http://host:port of the API listener
	debug string // http://host:port of the -debug-addr listener
	dir   string // its data directory
	log   *tail  // the end of its log, for start-up errors
	done  chan struct{}
	err   error
}

// tail keeps the last 8 KiB written to it. itagd logs every request by
// default; holding the log in memory keeps those writes off the disk the
// WAL fsyncs to.
type tail struct {
	mu  sync.Mutex
	buf []byte
}

func (t *tail) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, p...)
	if n := len(t.buf) - 8<<10; n > 0 {
		t.buf = append(t.buf[:0], t.buf[n:]...)
	}
	return len(p), nil
}

func (t *tail) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.buf)
}

// Ports handed to daemons come from below the kernel's ephemeral range
// (32768 and up by default), so the connections the daemons open cannot
// take one between this check and the daemon's bind. The offset keeps
// concurrent benchmark processes apart.
var (
	portMu   sync.Mutex
	nextPort = os.Getpid() % portSpan
)

const portBase, portSpan = 20000, 12000

// freePort returns a loopback address whose port was free just now and
// has not been handed out before by this process.
func freePort() (string, error) {
	portMu.Lock()
	defer portMu.Unlock()
	for i := 0; i < portSpan; i++ {
		addr := fmt.Sprintf("127.0.0.1:%d", portBase+nextPort)
		nextPort = (nextPort + 1) % portSpan
		if ln, err := net.Listen("tcp", addr); err == nil {
			ln.Close()
			return addr, nil
		}
	}
	return "", fmt.Errorf("no free loopback port in %d-%d", portBase, portBase+portSpan-1)
}

// startDaemon execs itagd with its default flags plus the given -db path
// and a fresh -debug-addr, and any extra flags (cluster membership).
func startDaemon(bin, addr, dir, db string, extra ...string) (*daemon, error) {
	dbg, err := freePort()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	args := append([]string{"-addr", addr, "-db", db, "-debug-addr", dbg}, extra...)
	cmd := exec.Command(bin, args...)
	log := &tail{}
	cmd.Stdout, cmd.Stderr = log, log
	// If the benchmark itself is killed, its daemons die with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, api: "http://" + addr, debug: "http://" + dbg, dir: dir, log: log, done: make(chan struct{})}
	go func() {
		d.err = cmd.Wait()
		close(d.done)
	}()
	return d, nil
}

// waitHealthy polls the daemon's health route until it answers 200.
func (d *daemon) waitHealthy(hc *http.Client, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		select {
		case <-d.done:
			return fmt.Errorf("itagd exited during start-up: %v\n%s", d.err, d.log)
		default:
		}
		resp, err := hc.Get(d.api + "/api/v1/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("itagd at %s not healthy after %s\n%s", d.api, timeout, d.log)
}

// stop sends SIGTERM, waits for the graceful drain, and kills the process
// if it has not exited after grace.
func (d *daemon) stop(grace time.Duration) {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(grace):
		_ = d.cmd.Process.Kill()
		<-d.done
	}
}

// cpuTime is the user+system CPU the process has used so far.
func (d *daemon) cpuTime() (time.Duration, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	s := string(raw)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+2:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	ut, err1 := strconv.ParseUint(f[11], 10, 64)
	st, err2 := strconv.ParseUint(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parse /proc stat: %v %v", err1, err2)
	}
	return time.Duration(ut+st) * time.Second / clockTicks, nil
}

// peakRSS is the process's resident-set high-water mark (VmHWM) in MiB.
func (d *daemon) peakRSS() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", d.cmd.Process.Pid)
}

// dirMiB is the total size of the regular files under dir in MiB.
func dirMiB(dir string) float64 {
	var total int64
	_ = filepath.WalkDir(dir, func(_ string, e fs.DirEntry, err error) error {
		if err == nil && e.Type().IsRegular() {
			if info, ierr := e.Info(); ierr == nil {
				total += info.Size()
			}
		}
		return nil
	})
	return float64(total) / (1 << 20)
}

// opCtx bounds one SDK call so a wedged server fails the op instead of the
// run.
func opCtx() (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), 10*time.Second)
}

// hostTicks reads the machine's steal and total CPU ticks from /proc/stat.
// Steal is time a virtual CPU wanted to run while the hypervisor ran
// another guest; on a shared host it moves every timing of a run.
func hostTicks() (steal, total uint64) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	for i, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseUint(f, 10, 64)
		if i == 7 {
			steal = v
		}
		if i < 8 { // user .. steal; guest time is already in user
			total += v
		}
	}
	return steal, total
}
