package main

import (
	"bufio"
	"bytes"
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
	"syscall"
	"time"
)

// clockTicks is USER_HZ, the unit of utime and stime in /proc/<pid>/stat;
// Linux fixes it at 100 on every architecture Go supports.
const clockTicks = 100

// server is one running batserve process.
type server struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:<port>
	log  string // path of the captured stderr
	done chan struct{}
	err  error // the process's exit status, valid once done is closed
	// ready is when /readyz first answered 200.
	ready time.Time
}

// signalGrace is how long after readiness stop waits before signalling:
// batserve installs its SIGTERM handler only after it starts serving, and
// a signal that lands in between kills it without a drain.
const signalGrace = 100 * time.Millisecond

// serverConfig says how to launch batserve.
type serverConfig struct {
	bin   string // the batserve binary
	store string // the -store file; the default sync policy is kept
	dir   string // where the log goes
	procs int    // GOMAXPROCS of the server
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startServer execs batserve and waits for its first 200 from /readyz. The
// returned duration runs from exec to that response: the set-up time a
// restarted deployment pays, store replay included.
func startServer(cfg serverConfig, n int) (*server, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	logPath := filepath.Join(cfg.dir, fmt.Sprintf("batserve-%d.log", n))
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, 0, err
	}
	defer logf.Close() // the child holds its own descriptor
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	cmd := exec.Command(cfg.bin, "-addr", addr, "-store", cfg.store, "-log-level", "warn")
	cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", cfg.procs))
	// Should the benchmark die, the kernel kills the server with it. The
	// signal follows the forking thread, and no goroutine of the benchmark
	// exits while locked to its thread, so threads outlive the server.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	cmd.Stdout, cmd.Stderr = logf, logf
	s := &server{cmd: cmd, base: "http://" + addr, log: logPath, done: make(chan struct{})}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start batserve: %w", err)
	}
	go func() {
		s.err = cmd.Wait()
		close(s.done)
	}()
	probe := &http.Client{Timeout: 2 * time.Second}
	deadline := start.Add(60 * time.Second)
	for {
		resp, err := probe.Get(s.base + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				s.ready = time.Now()
				probe.CloseIdleConnections()
				return s, s.ready.Sub(start), nil
			}
		}
		select {
		case <-s.done:
			return nil, 0, fmt.Errorf("batserve exited before ready (%v): %s", s.err, s.tail())
		case <-time.After(200 * time.Microsecond):
		}
		if time.Now().After(deadline) {
			_ = s.stop()
			return nil, 0, fmt.Errorf("batserve not ready after 60s: %s", s.tail())
		}
	}
}

// stop drains the server with SIGTERM, as an operator would, and waits for
// the process to exit; a server that has not exited after 30 s is killed.
// It returns an error unless the drain was clean.
func (s *server) stop() error {
	select {
	case <-s.done:
		return fmt.Errorf("batserve had already exited (%v): %s", s.err, s.tail())
	default:
	}
	time.Sleep(time.Until(s.ready.Add(signalGrace)))
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return fmt.Errorf("signal batserve: %w", err)
	}
	select {
	case <-s.done:
	case <-time.After(30 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.done
		return fmt.Errorf("batserve ignored SIGTERM for 30s: %s", s.tail())
	}
	if s.err != nil {
		return fmt.Errorf("batserve exit: %v: %s", s.err, s.tail())
	}
	return nil
}

// tail returns the last lines of the server log for error messages.
func (s *server) tail() string {
	b, _ := os.ReadFile(s.log)
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return strings.TrimSpace(string(b))
}

// cpuTicks returns the server's utime+stime so far.
func (s *server) cpuTicks() (int64, error) {
	return procCPUTicks(s.cmd.Process.Pid)
}

// procCPUTicks reads utime+stime of a process from /proc/<pid>/stat.
func procCPUTicks(pid int) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name in field 2 may hold spaces; fields after it start
	// past the last ')'. utime and stime are fields 14 and 15.
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return utime + stime, nil
}

// vmTicks is the VM's CPU time, summed over its CPUs, from the first line
// of /proc/stat.
type vmTicks struct {
	// steal is time the hypervisor ran something else while this VM had
	// work; busy is all time the VM had work: user, nice, system, irq,
	// softirq and steal (guest time is part of user).
	steal, busy int64
}

func readVMTicks() (vmTicks, error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return vmTicks{}, err
	}
	line, _, _ := bytes.Cut(b, []byte{'\n'})
	f := strings.Fields(string(line))
	if len(f) < 9 || f[0] != "cpu" {
		return vmTicks{}, errors.New("malformed /proc/stat")
	}
	var v [8]int64
	for i := range v {
		if v[i], err = strconv.ParseInt(f[i+1], 10, 64); err != nil {
			return vmTicks{}, err
		}
	}
	// Columns: user nice system idle iowait irq softirq steal.
	return vmTicks{steal: v[7], busy: v[0] + v[1] + v[2] + v[5] + v[6] + v[7]}, nil
}

// stolen returns the share of the VM's busy time since t0 that the
// hypervisor gave to others.
func (t vmTicks) stolen(t0 vmTicks) float64 {
	return ratio(float64(t.steal-t0.steal), float64(t.busy-t0.busy))
}

// peakRSSMB returns the server's VmHWM in MiB.
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
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// scrape fetches /metrics as a map from series (name plus label set, as
// exposed) to value.
func scrape(c *http.Client, base string) (map[string]float64, error) {
	resp, err := c.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d", resp.StatusCode)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
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
		out[line[:i]] = v
	}
	return out, sc.Err()
}
