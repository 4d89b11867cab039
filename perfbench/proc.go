package main

import (
	"bytes"
	"context"
	"fmt"
	"os/exec"
	"path/filepath"
	"syscall"
	"time"
)

// procTimeout bounds one child process; a child that runs longer is
// killed and its instances count as failed.
const procTimeout = 150 * time.Second

// passStat is one pass of a workload's command: process wall from exec
// to exit and user+sys CPU, summed over the pass's processes, the
// highest resident set among them, and the summed cube count of every
// encoding the pass returned.
type passStat struct {
	wall     time.Duration
	cpu      time.Duration
	maxRSSKB int64
	cubes    int
}

// add folds one finished process into the pass.
func (ps *passStat) add(p proc) {
	ps.wall += p.wall
	ps.cpu += p.cpu
	ps.maxRSSKB = max(ps.maxRSSKB, p.maxRSSKB)
}

// proc is one finished child process.
type proc struct {
	wall     time.Duration
	cpu      time.Duration
	maxRSSKB int64
	stdout   []byte
}

// runCmd runs one built command to completion and returns its
// resource usage and standard output. A nonzero exit or a timeout is an
// error carrying the command's standard error.
func (b *bench) runCmd(name string, args ...string) (proc, error) {
	ctx, cancel := context.WithTimeout(context.Background(), procTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, filepath.Join(b.bin, name), args...)
	cmd.Dir = b.work
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	t0 := time.Now()
	err := cmd.Run()
	wall := time.Since(t0)
	if err != nil {
		return proc{}, fmt.Errorf("%s %v: %w\n%s", name, args, err, tail(stderr.Bytes()))
	}
	p := proc{wall: wall, stdout: stdout.Bytes()}
	p.cpu = cmd.ProcessState.UserTime() + cmd.ProcessState.SystemTime()
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		p.maxRSSKB = ru.Maxrss // kilobytes on Linux
	}
	return p, nil
}

// tail returns at most the last 2 KiB of b.
func tail(b []byte) []byte {
	if len(b) > 2048 {
		return b[len(b)-2048:]
	}
	return b
}
