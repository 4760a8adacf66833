package shard

import (
	"fmt"
	"io"
	"os"
	"os/exec"
	"sync"
)

// execSpawned, when set (tests), observes every exec-host worker process
// right after it starts, so a drill can check the process was reaped.
var execSpawned func(*execWorker)

// startExecEnv spawns argv with extra environment entries appended — the
// launcher of exec-host session workers (EnvSession, plus EnvCacheDir for
// LocalHosts). Environment only reaches direct children; wrappers that
// hop machines (ssh) need the explicit CLI flags instead.
func startExecEnv(extraEnv []string, name string, args ...string) (*execWorker, error) {
	cmd := exec.Command(name, args...)
	cmd.Env = append(os.Environ(), extraEnv...)
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("shard: spawn %s: %w", name, err)
	}
	w := &execWorker{cmd: cmd, in: in, out: out}
	if execSpawned != nil {
		execSpawned(w)
	}
	return w, nil
}

// execWorker is one spawned worker process: Write goes to its stdin, Read
// comes from its stdout.
type execWorker struct {
	cmd *exec.Cmd
	in  io.WriteCloser
	out io.ReadCloser

	killOnce sync.Once
	waitOnce sync.Once
	waitErr  error
}

func (w *execWorker) Write(p []byte) (int, error) { return w.in.Write(p) }
func (w *execWorker) Read(p []byte) (int, error)  { return w.out.Read(p) }

// CloseWrite closes the worker's stdin: end of requests.
func (w *execWorker) CloseWrite() error { return w.in.Close() }

// Wait reaps the worker and returns its exit status. It is idempotent
// (exec.Cmd.Wait is not): the cancel path and the end-of-run shutdown
// may both reap the same worker.
func (w *execWorker) Wait() error {
	w.waitOnce.Do(func() { w.waitErr = w.cmd.Wait() })
	return w.waitErr
}

// Kill hard-stops the worker; pending Reads fail. Safe to call more than
// once.
func (w *execWorker) Kill() {
	w.killOnce.Do(func() {
		if w.cmd.Process != nil {
			w.cmd.Process.Kill()
		}
	})
}
