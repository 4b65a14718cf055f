package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/goalp/alp/client"
)

// proc is one server child process: alpserved or alpclusterd.
type proc struct {
	name string
	cmd  *exec.Cmd
	url  string
	log  *os.File
	done chan struct{} // closed once the process has been reaped
}

// startProc launches bin with args, waits for its "listening on ADDR"
// line and then until /readyz answers 200. Its stderr goes to logPath.
func startProc(ctx context.Context, name, bin, logPath string, args ...string) (*proc, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stderr = logf
	// Should the benchmark itself be killed, the kernel kills the server.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		logf.Close()
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	p := &proc{name: name, cmd: cmd, log: logf, done: make(chan struct{})}
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		addr := ""
		for sc.Scan() {
			if i := strings.Index(sc.Text(), "listening on "); i >= 0 && addr == "" {
				addr = strings.TrimSpace(sc.Text()[i+len("listening on "):])
				addrCh <- addr
			}
		}
		if addr == "" {
			close(addrCh)
		}
		cmd.Wait()
		close(p.done)
	}()
	select {
	case addr, ok := <-addrCh:
		if !ok {
			<-p.done
			logf.Close()
			return nil, fmt.Errorf("%s exited before listening (log: %s)", name, logPath)
		}
		p.url = "http://" + addr
	case <-ctx.Done():
		p.stop()
		return nil, ctx.Err()
	}
	hc := client.New(p.url, client.WithRetries(0))
	for {
		if ok, _ := hc.Health(ctx); ok {
			return p, nil
		}
		select {
		case <-ctx.Done():
			p.stop()
			return nil, fmt.Errorf("%s never became ready: %w", name, ctx.Err())
		case <-p.done:
			logf.Close()
			return nil, fmt.Errorf("%s exited during start-up (log: %s)", name, logPath)
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// stop sends SIGTERM, waits up to 10 s for a clean exit, then kills the
// process; it returns once the process has been reaped.
func (p *proc) stop() {
	p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
	case <-time.After(10 * time.Second):
		p.cmd.Process.Kill()
		<-p.done
	}
	p.log.Close()
}

func (p *proc) pid() int { return p.cmd.Process.Pid }

// clkTck is the kernel's USER_HZ, the unit of /proc/<pid>/stat times.
// Linux fixes it at 100 for every userspace ABI.
const clkTck = 100

// cpuTime returns the user+system CPU time a process has used so far,
// from fields 14 and 15 of /proc/<pid>/stat.
func cpuTime(pid int) (time.Duration, error) {
	data, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(pid), "stat"))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields resume after
	// its closing parenthesis, at field 3.
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
	if err1 != nil || err2 != nil {
		return 0, errors.New("malformed /proc stat times")
	}
	return time.Duration(utime+stime) * time.Second / clkTck, nil
}

// totalCPU sums cpuTime over pids.
func totalCPU(pids []int) (time.Duration, error) {
	var sum time.Duration
	for _, pid := range pids {
		t, err := cpuTime(pid)
		if err != nil {
			return 0, err
		}
		sum += t
	}
	return sum, nil
}

// resetPeakRSS writes 5 to /proc/<pid>/clear_refs, which resets the
// process's VmHWM to its current resident set.
func resetPeakRSS(pid int) error {
	return os.WriteFile(filepath.Join("/proc", strconv.Itoa(pid), "clear_refs"), []byte("5"), 0)
}

// peakRSS returns VmHWM from /proc/<pid>/status, in bytes.
func peakRSS(pid int) (int64, error) {
	f, err := os.Open(filepath.Join("/proc", strconv.Itoa(pid), "status"))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	return parseVmHWM(f)
}

func parseVmHWM(r io.Reader) (int64, error) {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		f := strings.Fields(line[len("VmHWM:"):])
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("malformed VmHWM line %q", line)
		}
		kb, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("malformed VmHWM line %q", line)
		}
		return kb << 10, nil
	}
	return 0, errors.New("no VmHWM in /proc status")
}
