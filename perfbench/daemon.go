package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one gnnserve child process on a loopback port.
type daemon struct {
	cmd  *exec.Cmd
	url  string
	log  *os.File
	done chan struct{} // closed once the process has been waited for
	err  error         // Wait's error, valid after done
}

// startDaemon starts bin serving snap with the given extra flags and
// waits for its first /readyz 200. It returns the time from start to
// ready. The daemon's stderr goes to logPath.
func startDaemon(ctx context.Context, bin, snap, logPath string, procs int, extra []string) (*daemon, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	args := append([]string{"-snapshot", snap, "-addr", "127.0.0.1:" + strconv.Itoa(port)}, extra...)
	log, err := os.Create(logPath)
	if err != nil {
		return nil, 0, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stderr = log
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(procs))
	// The daemon must not outlive the benchmark, even if it is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	d := &daemon{cmd: cmd, url: fmt.Sprintf("http://127.0.0.1:%d", port), log: log, done: make(chan struct{})}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		log.Close()
		return nil, 0, fmt.Errorf("starting %s: %w", bin, err)
	}
	go func() {
		d.err = cmd.Wait()
		close(d.done)
	}()
	if err := d.waitReady(ctx, 60*time.Second); err != nil {
		d.stop()
		return nil, 0, fmt.Errorf("%w\n%s", err, d.logTail())
	}
	return d, time.Since(start), nil
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

// waitReady polls /readyz until it answers 200.
func (d *daemon) waitReady(ctx context.Context, limit time.Duration) error {
	c := newConn(d.url)
	defer c.close()
	deadline := time.Now().Add(limit)
	for {
		if status, _, err := c.do(ctx, "GET", "/readyz", nil, ""); err == nil && status == http.StatusOK {
			return nil
		}
		select {
		case <-d.done:
			return fmt.Errorf("gnnserve exited before ready: %v", d.err)
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("gnnserve not ready after %v", limit)
		}
	}
}

// cpu is the daemon's user+system CPU time so far, from /proc.
func (d *daemon) cpu() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line, in clock ticks (USER_HZ = 100).
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+2:])
	if len(f) < 13 {
		return 0, errors.New("short /proc stat line")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return time.Duration(ut+st) * 10 * time.Millisecond, nil
}

// stop drains the daemon with SIGTERM (SIGKILL after a grace period),
// waits for it, and returns its resource usage.
func (d *daemon) stop() (*syscall.Rusage, error) {
	select {
	case <-d.done:
	default:
		d.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-d.done:
		case <-time.After(30 * time.Second):
			d.cmd.Process.Kill()
			<-d.done
		}
	}
	d.log.Close()
	ru, _ := d.cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if ru == nil {
		return nil, errors.New("no rusage for gnnserve")
	}
	if !d.cmd.ProcessState.Success() {
		return ru, fmt.Errorf("gnnserve: %v\n%s", d.err, d.logTail())
	}
	return ru, nil
}

// logTail is the end of the daemon's stderr, for error messages.
func (d *daemon) logTail() string {
	b, err := os.ReadFile(d.log.Name())
	if err != nil {
		return ""
	}
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return string(b)
}

// machineSteal reads the machine-wide steal and total CPU ticks from
// /proc/stat; zeros where it is unavailable.
func machineSteal() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	// user nice system idle iowait irq softirq steal
	for i, s := range f[1:9] {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}
