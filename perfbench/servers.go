package main

import (
	"context"
	"encoding/json"
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

	"ptrack/internal/cluster"
)

// serverProcs is each server's GOMAXPROCS, and the generator runs on
// the same count. The benchmark therefore measures one P per process:
// it does not measure ptrack-serve's multi-core behaviour (handlers
// running beside the hub and the SSE broker, lock contention,
// cross-core wake-ups). With the Go default on the 2-vCPU host the
// benchmark was calibrated on, server CPU per sample rose ~13% and
// moved by ±15% between runs of the same code, and on live-binary a
// session's 256-sample queue overflowed while its goroutine waited
// for a core, so pushes were refused at half the sustained rate.
const serverProcs = 1

// serverProc is one running ptrack-serve process.
type serverProc struct {
	cmd   *exec.Cmd
	pid   string
	addr  string // host:port of the API
	debug string // host:port of the debug listener
	log   *os.File
	done  chan struct{} // closed once the process has been waited for
	err   error
}

// freePort asks the kernel for an unused loopback port.
func freePort() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// serverSet is the workload's server processes.
type serverSet struct {
	procs []*serverProc
	nodes []cluster.Node
}

func (ss *serverSet) pids() []string {
	out := make([]string, len(ss.procs))
	for i, p := range ss.procs {
		out[i] = p.pid
	}
	return out
}

func (ss *serverSet) bases() []string {
	out := make([]string, len(ss.procs))
	for i, p := range ss.procs {
		out[i] = "http://" + p.addr
	}
	return out
}

// startServers execs the workload's ptrack-serve processes; dir holds
// their logs and, in cluster mode, their state directories.
func startServers(w workload, bin, dir string) (*serverSet, error) {
	ss := &serverSet{}
	var addrs, debugs []string
	for i := 0; i < w.replicas; i++ {
		a, err := freePort()
		if err != nil {
			return nil, err
		}
		d, err := freePort()
		if err != nil {
			return nil, err
		}
		addrs, debugs = append(addrs, a), append(debugs, d)
	}
	var peers []string
	if w.replicas > 1 {
		for i, a := range addrs {
			n := cluster.Node{Name: string(rune('a' + i)), URL: "http://" + a}
			ss.nodes = append(ss.nodes, n)
			peers = append(peers, n.Name+"="+n.URL)
		}
	}
	for i := range addrs {
		args := []string{
			"-addr", addrs[i], "-rate", strconv.FormatFloat(sampleRate, 'f', -1, 64),
			"-debug-addr", debugs[i], "-log-level", "warn",
		}
		if w.sampledEvery > 0 {
			// Tracing on with the in-memory ring only. Every push carries
			// a traceparent, so the sampled share is the generator's;
			// the head-sampling rate only governs requests without one.
			args = append(args, "-trace-sample", "0.000001")
		}
		p := &serverProc{addr: addrs[i], debug: debugs[i], done: make(chan struct{})}
		if len(ss.nodes) > 0 {
			node := ss.nodes[i].Name
			state := filepath.Join(dir, "state-"+node)
			args = append(args, "-node", node, "-peers", strings.Join(peers, ","),
				"-state-dir", state, "-checkpoint", "1s")
		}
		logf, err := os.Create(filepath.Join(dir, fmt.Sprintf("server-%d.log", i)))
		if err != nil {
			ss.stop()
			return nil, err
		}
		p.log = logf
		p.cmd = exec.Command(bin, args...)
		p.cmd.Stdout, p.cmd.Stderr = logf, logf
		p.cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(serverProcs))
		// The server dies with the benchmark even if it is killed.
		p.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		if err := p.cmd.Start(); err != nil {
			logf.Close()
			ss.stop()
			return nil, fmt.Errorf("start ptrack-serve: %w", err)
		}
		p.pid = strconv.Itoa(p.cmd.Process.Pid)
		go func() {
			p.err = p.cmd.Wait()
			close(p.done)
		}()
		ss.procs = append(ss.procs, p)
	}
	return ss, nil
}

// waitListening polls every server's API port until it accepts a
// connection.
func (ss *serverSet) waitListening(ctx context.Context) error {
	for _, p := range ss.procs {
		for {
			c, err := net.DialTimeout("tcp", p.addr, time.Second)
			if err == nil {
				c.Close()
				break
			}
			select {
			case <-p.done:
				return fmt.Errorf("ptrack-serve exited during start-up: %v (log %s)", p.err, p.log.Name())
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(500 * time.Microsecond):
			}
		}
	}
	return nil
}

// hwm sums peak resident set sizes over the servers, in bytes.
func (ss *serverSet) hwm() (int64, error) {
	var sum int64
	for _, p := range ss.procs {
		h, err := procHWM(p.pid)
		if err != nil {
			return 0, err
		}
		sum += h
	}
	return sum, nil
}

// gcCPUFraction averages memstats.GCCPUFraction from each server's
// /debug/vars.
func (ss *serverSet) gcCPUFraction() (float64, error) {
	hc := &http.Client{Timeout: 5 * time.Second}
	var sum float64
	for _, p := range ss.procs {
		resp, err := hc.Get("http://" + p.debug + "/debug/vars")
		if err != nil {
			return 0, err
		}
		var vars struct {
			Memstats struct {
				GCCPUFraction float64
			} `json:"memstats"`
		}
		err = json.NewDecoder(resp.Body).Decode(&vars)
		resp.Body.Close()
		if err != nil {
			return 0, fmt.Errorf("/debug/vars: %w", err)
		}
		sum += vars.Memstats.GCCPUFraction
	}
	hc.CloseIdleConnections()
	return sum / float64(len(ss.procs)), nil
}

// stop kills every server and waits for each to exit. Nothing is left
// to drain: the run has read all it needs by then.
func (ss *serverSet) stop() {
	for _, p := range ss.procs {
		_ = p.cmd.Process.Kill()
	}
	for _, p := range ss.procs {
		<-p.done
		p.log.Close()
	}
}
