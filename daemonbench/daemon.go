package main

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// target runs the daemon stack one way: the real graphm-serve binary, or
// the traced in-process build of the same stack. A target runs one daemon
// at a time.
type target interface {
	// launch starts a daemon serving dataset ds (durable over dataDir when
	// it is not empty) and returns its base URL without waiting for health.
	launch(ds, dataDir string) (string, error)
	// peakRSSMB is the daemon's peak resident set so far, in MB.
	peakRSSMB() (float64, error)
	// observe is called once the load on the running daemon is over and
	// every ticket in ids is terminal, before the daemon goes away.
	observe(ids []int)
	// kill stops the daemon the way a crash would (SIGKILL).
	kill()
	// stop shuts the daemon down gracefully (SIGTERM: drain, exit).
	stop() error
}

// binTarget runs the real binary with the shipped default flags plus the
// dataset, listen address and data directory.
type binTarget struct {
	bin    string
	logDir string

	cmd    *exec.Cmd
	exited chan error
	runs   int
}

func (b *binTarget) launch(ds, dataDir string) (string, error) {
	if b.cmd != nil {
		return "", errors.New("daemon already running")
	}
	addr, err := freeAddr()
	if err != nil {
		return "", err
	}
	args := []string{"-dataset", ds, "-listen", addr}
	if dataDir != "" {
		args = append(args, "-data-dir", dataDir)
	}
	b.runs++
	// The daemon's stdout goes to a file: a pipe nobody reads would stall it.
	logf, err := os.Create(filepath.Join(b.logDir, fmt.Sprintf("daemon-%d.log", b.runs)))
	if err != nil {
		return "", err
	}
	cmd := exec.Command(b.bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// A benchmark killed mid-run must not leave its daemon behind.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return "", fmt.Errorf("start %s: %w", b.bin, err)
	}
	b.cmd = cmd
	b.exited = make(chan error, 1)
	reaped := make(chan struct{})
	daemons.Lock()
	daemons.m[cmd] = reaped
	daemons.Unlock()
	go func() {
		err := cmd.Wait()
		logf.Close()
		daemons.Lock()
		delete(daemons.m, cmd)
		daemons.Unlock()
		close(reaped)
		b.exited <- err
	}()
	return "http://" + addr, nil
}

func (b *binTarget) peakRSSMB() (float64, error) {
	if b.cmd == nil {
		return 0, errors.New("no daemon running")
	}
	return vmHWM(strconv.Itoa(b.cmd.Process.Pid))
}

func (b *binTarget) observe([]int) {}

func (b *binTarget) kill() {
	if b.cmd == nil {
		return
	}
	_ = b.cmd.Process.Signal(syscall.SIGKILL) // it may have exited already; wait says how
	<-b.exited
	b.cmd = nil
}

func (b *binTarget) stop() error {
	if b.cmd == nil {
		return nil
	}
	if err := b.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		b.kill()
		return fmt.Errorf("signal daemon: %w", err)
	}
	var err error
	select {
	case err = <-b.exited:
	case <-time.After(60 * time.Second):
		_ = b.cmd.Process.Signal(syscall.SIGKILL)
		<-b.exited
		err = errors.New("daemon ignored SIGTERM for 60s")
	}
	b.cmd = nil
	if err != nil {
		return fmt.Errorf("daemon exit: %w (log in %s)", err, b.logDir)
	}
	return nil
}

// daemons are the graphm-serve processes started and not yet reaped, each
// with a channel closed once it is.
var daemons = struct {
	sync.Mutex
	m map[*exec.Cmd]chan struct{}
}{m: map[*exec.Cmd]chan struct{}{}}

// killDaemons SIGKILLs every daemon not yet reaped and waits until each has
// ended, so no way out of a run leaves one behind.
func killDaemons() {
	daemons.Lock()
	left := make(map[*exec.Cmd]chan struct{}, len(daemons.m))
	for cmd, reaped := range daemons.m {
		left[cmd] = reaped
	}
	daemons.Unlock()
	for cmd, reaped := range left {
		_ = cmd.Process.Signal(syscall.SIGKILL) // it may have exited already
		select {
		case <-reaped:
		case <-time.After(10 * time.Second):
			fmt.Fprintf(os.Stderr, "daemonbench: daemon %d not reaped 10s after SIGKILL\n", cmd.Process.Pid)
		}
	}
}

// freeAddr returns a loopback address with a port that was free a moment
// ago.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	return addr, ln.Close()
}

// vmHWM reads the peak resident set (VmHWM) of /proc/<pid>, in MB.
func vmHWM(pid string) (float64, error) {
	f, err := os.Open(filepath.Join("/proc", pid, "status"))
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
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}
