package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// harness owns everything a run leaves outside its own memory: the built
// binaries, the server subprocesses and the temporary data directories.
// cleanup is safe to call from any exit path, any number of times.
type harness struct {
	root   string // repository root
	binDir string
	tmpDir string // removed by cleanup

	mu    sync.Mutex
	procs map[*server]struct{}
}

// newHarness builds cmd/spatialserver and cmd/spatialcluster into
// <root>/.bench_build/bin (the go build cache makes a rebuild of unchanged
// sources a no-op) and makes a private temporary directory beside them, so a
// run reads and writes only inside the checkout.
func newHarness(root string) (*harness, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	build := filepath.Join(root, ".bench_build")
	h := &harness{root: root, binDir: filepath.Join(build, "bin"), procs: make(map[*server]struct{})}
	if err := os.MkdirAll(h.binDir, 0o755); err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, "go", "build", "-o", h.binDir+string(os.PathSeparator),
		"./cmd/spatialserver", "./cmd/spatialcluster")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("build servers: %w\n%s", err, out)
	}
	if err := os.MkdirAll(filepath.Join(build, "tmp"), 0o755); err != nil {
		return nil, err
	}
	h.tmpDir, err = os.MkdirTemp(filepath.Join(build, "tmp"), "run-")
	if err != nil {
		return nil, err
	}
	return h, nil
}

// cleanup kills every live server's process group, waits for each to end and
// removes the temporary directories.
func (h *harness) cleanup() {
	h.mu.Lock()
	procs := make([]*server, 0, len(h.procs))
	for s := range h.procs {
		procs = append(procs, s)
	}
	h.mu.Unlock()
	for _, s := range procs {
		s.kill()
	}
	os.RemoveAll(h.tmpDir)
}

// dataDir returns a fresh directory under the run's temporary directory.
func (h *harness) dataDir(name string) (string, error) {
	return os.MkdirTemp(h.tmpDir, name+"-")
}

// server is one running spatialserver or spatialcluster subprocess.
type server struct {
	h      *harness
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:port
	exited chan struct{}
	stderr *tailBuffer
}

var addrRE = regexp.MustCompile(`(?:addr=|serving on )(127\.0\.0\.1:\d+)`)

const startTimeout = 60 * time.Second

// start runs one of the built binaries on a free loopback port (the server
// binds 127.0.0.1:0 and logs the address it got), and returns once
// /v1/healthz answers. The child runs in its own process group and is killed
// by the kernel if the benchmark dies first.
func (h *harness) start(binary string, args ...string) (*server, error) {
	args = append([]string{"-addr", "127.0.0.1:0"}, args...)
	cmd := exec.Command(filepath.Join(h.binDir, binary), args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	s := &server{h: h, cmd: cmd, exited: make(chan struct{}), stderr: &tailBuffer{}}
	cmd.Stderr = s.stderr
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	h.mu.Lock()
	h.procs[s] = struct{}{}
	h.mu.Unlock()

	addrC := make(chan string, 1)
	go func() {
		// Reads until the pipe closes at process exit, so the server never
		// blocks on a full pipe; Wait runs only after the reads are done.
		sc := bufio.NewScanner(stdout)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		sent := false
		for sc.Scan() {
			if m := addrRE.FindStringSubmatch(sc.Text()); m != nil && !sent {
				sent = true
				addrC <- m[1]
			}
		}
		_, _ = io.Copy(io.Discard, stdout) // a line over the scanner's limit
		_ = cmd.Wait()
		h.mu.Lock()
		delete(h.procs, s)
		h.mu.Unlock()
		close(s.exited)
	}()

	select {
	case addr := <-addrC:
		s.base = "http://" + addr
	case <-s.exited:
		return nil, fmt.Errorf("%s exited before listening: %s", binary, s.stderr.String())
	case <-time.After(startTimeout):
		s.kill()
		return nil, fmt.Errorf("%s did not log its address within %v", binary, startTimeout)
	}
	if err := s.waitHealthy(); err != nil {
		s.kill()
		return nil, err
	}
	return s, nil
}

func (s *server) waitHealthy() error {
	deadline := time.Now().Add(startTimeout)
	for {
		resp, err := httpClient.Get(s.base + "/v1/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-s.exited:
			return fmt.Errorf("server exited before becoming healthy: %s", s.stderr.String())
		default:
		}
		if time.Now().After(deadline) {
			return errors.New("server did not become healthy")
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// kill ends the server's whole process group and waits until it is gone.
func (s *server) kill() {
	_ = syscall.Kill(-s.cmd.Process.Pid, syscall.SIGKILL)
	<-s.exited
}

// terminate asks for a graceful shutdown (SIGTERM: drain, final snapshot)
// and waits; a server that does not exit in time is killed and reported.
func (s *server) terminate(timeout time.Duration) error {
	_ = syscall.Kill(s.cmd.Process.Pid, syscall.SIGTERM)
	select {
	case <-s.exited:
		return nil
	case <-time.After(timeout):
		s.kill()
		return fmt.Errorf("server ignored SIGTERM for %v", timeout)
	}
}

// rssPeakMB reads the server's peak resident set size (VmHWM) in MiB.
func (s *server) rssPeakMB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) < 1 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("VmHWM not found in /proc status")
}

// tailBuffer keeps the last few KiB written to it (a server's stderr), for
// error messages.
type tailBuffer struct {
	mu  sync.Mutex
	buf []byte
}

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, p...)
	if len(t.buf) > 4096 {
		t.buf = t.buf[len(t.buf)-4096:]
	}
	return len(p), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.buf)
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
