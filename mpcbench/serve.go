package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"hash"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"mpclogic/internal/mpcd"
)

// clients is the closed-loop client count: the host has two cores, so
// two clients on two keep-alive connections, each owning every
// clients-th session.
const clients = 2

// daemon is one running mpcd process.
type daemon struct {
	cmd  *exec.Cmd
	base string
}

// startDaemon execs mpcd on a kernel-chosen loopback port and returns
// once it prints its listening line, which it does only after any
// snapshot restore has finished.
func startDaemon(bin string, extra ...string) (*daemon, error) {
	args := append([]string{"-addr", "127.0.0.1:0"}, extra...)
	cmd := exec.Command(filepath.Join(bin, "mpcd"), args...)
	cmd.SysProcAttr = dieWithParent()
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting mpcd: %w", err)
	}
	d := &daemon{cmd: cmd}
	line, err := bufio.NewReader(stdout).ReadString('\n')
	const prefix = "mpcd listening on "
	if err != nil || !strings.HasPrefix(line, prefix) {
		d.stop()
		return nil, fmt.Errorf("mpcd did not start (first line %q): %v", line, err)
	}
	d.base = strings.TrimSpace(strings.TrimPrefix(line, prefix))
	return d, nil
}

// dieWithParent makes a child process get SIGKILL if the benchmark
// dies first (a crash, or a runner's timeout), so no daemon or job
// outlives the run.
func dieWithParent() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}

// stop kills the daemon, reaps it, and returns its peak resident set
// size in KiB. A checkpointed daemon has already written its snapshot,
// so a hard kill loses nothing.
func (d *daemon) stop() int64 {
	_ = d.cmd.Process.Kill() // fails only when the process already exited; Wait reaps it either way
	_ = d.cmd.Wait()         // a killed daemon always reports an exit error
	if ru, ok := d.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		return ru.Maxrss
	}
	return 0
}

// client is one closed-loop client on its own keep-alive connection.
type client struct {
	hc   *http.Client
	tr   *http.Transport
	base string
}

func newClient(base string) *client {
	tr := &http.Transport{MaxIdleConns: 1, MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	return &client{hc: &http.Client{Transport: tr, Timeout: 60 * time.Second}, tr: tr, base: base}
}

func (c *client) close() { c.tr.CloseIdleConnections() }

// do sends one request and reads the whole response.
func (c *client) do(method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return resp.StatusCode, raw, err
}

// liveOp is one prepared request: the session it belongs to, its
// endpoint and JSON body, and whether its response is kept for the
// central correctness sample.
type liveOp struct {
	id     int // position in the run's op sequence, shared by every replay of it
	sess   int
	create bool    // a session create (else a query)
	q      queryOp // the scripted query, with the path it must take
	path   string
	body   []byte
	keep   bool
}

// opResult is what one request produced.
type opResult struct {
	status int
	ms     float64
	bytes  int
	body   []byte // only for kept ops
	err    error
	path   string // serving path (in-process reference only)
	comm   int    // response comm (in-process reference only)
}

// runOps issues ops in order on one client and folds every response
// body into its session's digest.
func runOps(c *client, ops []liveOp, digests map[int]hash.Hash) []opResult {
	out := make([]opResult, len(ops))
	for i, op := range ops {
		start := time.Now()
		status, body, err := c.do("POST", op.path, op.body)
		out[i] = opResult{status: status, ms: float64(time.Since(start)) / 1e6, bytes: len(body), err: err}
		if op.keep {
			out[i].body = body
		}
		digests[op.sess].Write(body)
	}
	return out
}

// closedLoop runs each client's op list on its own goroutine and
// returns the per-client results and the wall time of the whole phase.
func closedLoop(cs []*client, ops [][]liveOp, digests []map[int]hash.Hash) ([][]opResult, time.Duration) {
	res := make([][]opResult, len(cs))
	var wg sync.WaitGroup
	start := time.Now()
	for i := range cs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res[i] = runOps(cs[i], ops[i], digests[i])
		}(i)
	}
	wg.Wait()
	return res, time.Since(start)
}

// twinOps replays ops on the in-process reference server through its
// HTTP handler, one goroutine per client, timing each ServeHTTP call.
// Its digests are the reference the live daemon's must equal.
func twinOps(h http.Handler, ops [][]liveOp, digests []map[int]hash.Hash) [][]opResult {
	res := make([][]opResult, len(ops))
	var wg sync.WaitGroup
	for i := range ops {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res[i] = serveOps(h, ops[i], digests[i])
		}(i)
	}
	wg.Wait()
	return res
}

func serveOps(h http.Handler, ops []liveOp, digests map[int]hash.Hash) []opResult {
	out := make([]opResult, len(ops))
	for i, op := range ops {
		req := httptest.NewRequest("POST", op.path, bytes.NewReader(op.body))
		rec := httptest.NewRecorder()
		start := time.Now()
		h.ServeHTTP(rec, req)
		ms := float64(time.Since(start)) / 1e6
		body := rec.Body.Bytes()
		out[i] = opResult{status: rec.Code, ms: ms, bytes: len(body)}
		if !op.create && rec.Code == http.StatusOK {
			var sr struct {
				Path string `json:"path"`
				Comm int    `json:"comm"`
			}
			if err := json.Unmarshal(body, &sr); err != nil {
				out[i].err = err
			}
			out[i].path, out[i].comm = sr.Path, sr.Comm
		}
		digests[op.sess].Write(body)
	}
	return out
}

// newDigests makes one sha256 per session, grouped by owning client.
func newDigests(sessions int) []map[int]hash.Hash {
	out := make([]map[int]hash.Hash, clients)
	for c := range out {
		out[c] = make(map[int]hash.Hash)
	}
	for s := 0; s < sessions; s++ {
		out[s%clients][s] = sha256.New()
	}
	return out
}

// sessionDigest is the hex digest of one session's response stream.
func sessionDigest(ds []map[int]hash.Hash, s int) string {
	return fmt.Sprintf("%x", ds[s%clients][s].Sum(nil))
}

type createBody struct {
	ID     string   `json:"id"`
	Budget int      `json:"budget"`
	Facts  []string `json:"facts"`
}

type queryBody struct {
	Session string `json:"session"`
	Query   string `json:"query"`
	Lang    string `json:"lang,omitempty"`
	Out     string `json:"out,omitempty"`
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain structs of strings and ints are encoded
	}
	return b
}

func createOp(s int, spec sessionSpec) liveOp {
	return liveOp{sess: s, create: true, path: "/v1/sessions",
		body: mustJSON(createBody{ID: spec.ID, Budget: spec.Budget, Facts: spec.Facts})}
}

func queryOpFor(s int, spec sessionSpec, q queryOp) liveOp {
	return liveOp{sess: s, q: q, path: "/v1/query",
		body: mustJSON(queryBody{Session: spec.ID, Query: q.Query, Lang: q.Lang, Out: q.Out})}
}

// byClient distributes per-session op lists over the clients: client c
// owns sessions c, c+clients, …, and interleaves them round-robin, one
// op per session per turn, so every session's ops stay in order.
func byClient(perSession [][]liveOp) [][]liveOp {
	out := make([][]liveOp, clients)
	for c := 0; c < clients; c++ {
		for i := 0; ; i++ {
			any := false
			for s := c; s < len(perSession); s += clients {
				if i < len(perSession[s]) {
					out[c] = append(out[c], perSession[s][i])
					any = true
				}
			}
			if !any {
				break
			}
		}
	}
	return out
}

// statz reads the live daemon's server-wide counters.
func statz(c *client) (mpcd.StatzResponse, error) {
	var st mpcd.StatzResponse
	status, body, err := c.do("GET", "/v1/statz", nil)
	if err != nil {
		return st, err
	}
	if status != http.StatusOK {
		return st, fmt.Errorf("statz: status %d", status)
	}
	return st, json.Unmarshal(body, &st)
}

// addStatz accumulates counters across daemon incarnations.
func addStatz(a *mpcd.StatzResponse, b mpcd.StatzResponse) {
	a.Admitted += b.Admitted
	a.Reused += b.Reused
	a.Repartitioned += b.Repartitioned
	a.Gathered += b.Gathered
	a.PlanHits += b.PlanHits
	a.PlanMisses += b.PlanMisses
	a.CoverHits += b.CoverHits
	a.CoverMisses += b.CoverMisses
	a.CoverSkips += b.CoverSkips
}

// checkpoint posts /v1/checkpoint and returns how long it took.
func checkpoint(c *client) (time.Duration, error) {
	start := time.Now()
	status, body, err := c.do("POST", "/v1/checkpoint", nil)
	d := time.Since(start)
	if err != nil {
		return d, err
	}
	if status != http.StatusOK {
		return d, fmt.Errorf("checkpoint: status %d: %s", status, body)
	}
	return d, nil
}
