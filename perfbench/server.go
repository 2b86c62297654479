package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/api"
)

// clockTicks is USER_HZ, the unit of utime/stime in /proc/<pid>/stat; it
// is 100 on every Linux platform Go supports.
const clockTicks = 100

// server is one amf-server process.
type server struct {
	bin  string
	args []string // without -listen
	addr string
	log  string
	cmd  *exec.Cmd
	done chan struct{}
	cl   *api.Client
	hc   *http.Client
}

// freeAddr reserves a loopback port by binding and releasing it.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// newHTTPClient caps the generator at conns connections to the server.
func newHTTPClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
}

// startServer execs the server with args on a fresh loopback port.
func startServer(bin string, args []string, logPath string, gomaxprocs int) (*server, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	s := &server{bin: bin, args: args, addr: addr, log: logPath}
	return s, s.exec(gomaxprocs)
}

func (s *server) exec(gomaxprocs int) error {
	logf, err := os.OpenFile(s.log, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	defer logf.Close()
	cmd := exec.Command(s.bin, append([]string{"-listen", s.addr}, s.args...)...)
	cmd.Stdout = logf
	cmd.Stderr = logf
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(gomaxprocs))
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("starting %s: %w", s.bin, err)
	}
	s.cmd = cmd
	s.done = make(chan struct{})
	go func() {
		_ = cmd.Wait()
		close(s.done)
	}()
	if s.hc != nil {
		s.hc.CloseIdleConnections()
	}
	s.hc = newHTTPClient(2)
	s.cl = api.NewClient("http://"+s.addr, s.hc)
	return nil
}

// waitReady polls GET /v1/readyz until it answers 200.
func (s *server) waitReady(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		select {
		case <-s.done:
			return fmt.Errorf("server exited before ready; see %s", s.log)
		default:
		}
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		err := s.cl.Readyz(ctx)
		cancel()
		if err == nil {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server not ready after %v: %w", timeout, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// kill SIGKILLs the server and waits until it has exited.
func (s *server) kill() {
	if s.cmd == nil {
		return
	}
	_ = s.cmd.Process.Signal(syscall.SIGKILL)
	<-s.done
	s.hc.CloseIdleConnections()
	s.cmd = nil
}

// restart SIGKILLs the server and execs it again with the same flags and
// address, returning how long it took until GET /v1/readyz answered 200.
func (s *server) restart(gomaxprocs int) (time.Duration, error) {
	s.kill()
	start := time.Now()
	if err := s.exec(gomaxprocs); err != nil {
		return 0, err
	}
	if err := s.waitReady(60 * time.Second); err != nil {
		return 0, err
	}
	return time.Since(start), nil
}

// cpu returns the server's user+sys CPU time so far.
func (s *server) cpu() (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	rest := string(data)
	if i := strings.LastIndexByte(rest, ')'); i >= 0 {
		rest = rest[i+2:]
	}
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, errors.New("short /proc stat line")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parsing /proc stat: %v %v", err1, err2)
	}
	return time.Duration(ut+st) * time.Second / clockTicks, nil
}

// peakRSSMB returns the server's peak resident set size (VmHWM) in MiB.
func (s *server) peakRSSMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// fsyncProbe times n small write+fsync calls in dir: the disk the WAL's
// group commit waits on. It returns the median and p95 in ms.
func fsyncProbe(dir string, n int) (p50, p95 float64, err error) {
	path := filepath.Join(dir, "fsync-probe")
	f, err := os.Create(path)
	if err != nil {
		return 0, 0, err
	}
	defer os.Remove(path)
	defer f.Close()
	buf := make([]byte, 512)
	var xs []float64
	for i := 0; i < n; i++ {
		start := time.Now()
		if _, err := f.Write(buf); err != nil {
			return 0, 0, err
		}
		if err := f.Sync(); err != nil {
			return 0, 0, err
		}
		xs = append(xs, ms(time.Since(start)))
	}
	p95, _ = percentile(xs, 0.95)
	return median(xs), p95, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
