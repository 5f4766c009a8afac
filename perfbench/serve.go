package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"runtime/pprof"
	"sync"
	"time"

	"cohmeleon/internal/experiment"
	"cohmeleon/internal/server"
)

// serveWorkload drives an in-process server.Server over HTTP on the
// loopback interface, as a one-member shared fleet over a fresh cache
// directory. A closed loop of serveClients clients submits tiny sweep
// jobs; each client alternates a cold job — a spec nobody has run yet —
// with warmPerCold warm jobs repeating specs it has completed, and waits
// for each on the job's NDJSON event stream.
//
// The cold specs form a fixed pool derived from the experiment seed and
// sized by --seconds, and client c's cold stream is every
// serveClients-th spec from c on. Every run serves the same work the
// same way: single-scenario jobs range from 0.05 s to over 10 s, and a
// pool or a split that changed between runs would move every
// percentile and the makespan with it. --seed drives the warm picks.
type serveWorkload struct {
	pool       []server.JobSpec
	refResults []*experiment.SweepResult // in-process runs of pool[:refSpecs]
	refReports []string
	live       *liveServer
}

const (
	serveClients = 2
	// coldJobsPerSecond sizes the cold pool: about --seconds of work for
	// two clients on a two-core host.
	coldJobsPerSecond = 1.6
	// warmPerCold is how many warm repeats follow each cold job; warm
	// jobs take milliseconds, so a few per cold job steady their median.
	warmPerCold = 3
	// refSpecs is how many pool specs are also run in-process in set-up,
	// so their served reports can be compared byte for byte.
	refSpecs = 2
)

func (w *serveWorkload) setupReps() int { return 3 }

// setup runs the reference specs in-process from a cold memo and no
// cache directory, then starts a server over a fresh cache directory.
func (w *serveWorkload) setup(b *bench) error {
	w.close()
	if w.pool == nil {
		n := max(refSpecs, int(coldJobsPerSecond*b.seconds))
		for k := 0; k < n; k++ {
			w.pool = append(w.pool, server.JobSpec{
				Experiment: "sweep", Profile: "tiny", Scenarios: 1,
				Seed: b.expSeed*100_000 + uint64(k) + 1, TimeoutSec: 120,
			})
		}
	}
	if err := experiment.SetRunCacheDir(""); err != nil {
		return err
	}
	experiment.ResetRunCache()
	w.refResults, w.refReports = nil, nil
	for _, spec := range w.pool[:refSpecs] {
		opt := experiment.Tiny()
		opt.Seed = spec.Seed
		opt.SweepScenarios = spec.Scenarios
		opt.Workers = 1
		res, err := experiment.Sweep(opt)
		if err != nil {
			return err
		}
		w.refResults = append(w.refResults, res)
		w.refReports = append(w.refReports, res.Render())
	}
	var err error
	w.live, err = startServer(b.workDir)
	return err
}

// jobRecord is one served job as its client saw it.
type jobRecord struct {
	spec    int
	warm    bool
	latency float64 // submit to report received, seconds
	spans   map[string]float64
	cellMs  float64
	cells   int
	refused int
	report  string
	err     error
}

// measure runs the job mix once on the live server (starting one when
// the previous phase consumed it) and stops the server afterwards.
func (w *serveWorkload) measure(b *bench, traced bool) (*phase, error) {
	if w.live == nil {
		var err error
		if w.live, err = startServer(b.workDir); err != nil {
			return nil, err
		}
	}
	experiment.ResetRunCache()
	experiment.ResetCheckpointStats()
	var prof bytes.Buffer
	if traced {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, err
		}
	}
	clock := readSteal()
	t0, c0 := time.Now(), cpuSeconds()
	records := make([][]jobRecord, serveClients)
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		var stream []int
		for k := c; k < len(w.pool); k += serveClients {
			stream = append(stream, k)
		}
		rng := rand.New(rand.NewPCG(b.seed, uint64(c)))
		wg.Add(1)
		go func() {
			defer wg.Done()
			records[c] = w.client(stream, rng)
		}()
	}
	wg.Wait()
	// Jobs are too short to read steal one by one; the phase's share
	// applies to all of them.
	steal := clock.stolenSince()
	net := 1 - steal
	wall, cpu := net*time.Since(t0).Seconds(), cpuSeconds()-c0
	if traced {
		pprof.StopCPUProfile()
	}
	snap := experiment.Snapshot()
	w.live.stop()
	w.live = nil

	ph := &phase{walls: []float64{wall}, cpus: []float64{cpu}, timed: wall, cellWall: wall,
		spans: map[string][]float64{}, snap: snap, steal: steal}
	if traced {
		ph.profiles = [][]byte{prof.Bytes()}
	}
	for _, recs := range records {
		cold := map[int]string{}
		for _, r := range recs {
			ph.refused += r.refused
			for i := 0; i < r.refused; i++ {
				b.check(false, "job submission refused (429)")
			}
			if !b.op(r.err) {
				continue
			}
			ph.jobs++
			class := "cold"
			if r.warm {
				class = "warm"
				ph.warm = append(ph.warm, net*r.latency)
				b.check(r.report == cold[r.spec], "warm report for seed %d differs from its cold report", w.pool[r.spec].Seed)
			} else {
				ph.cold = append(ph.cold, net*r.latency)
				ph.cells += r.cells
				ph.cellMs = append(ph.cellMs, net*r.cellMs)
				cold[r.spec] = r.report
				if r.spec < refSpecs {
					b.check(r.report == w.refReports[r.spec],
						"served report for seed %d differs from the in-process report", w.pool[r.spec].Seed)
				}
			}
			for k, v := range r.spans {
				ph.spans[class+"."+k] = append(ph.spans[class+"."+k], net*v)
			}
		}
	}
	return ph, nil
}

// client runs one closed-loop client: each cold spec of its stream,
// each followed by warm repeats of specs it has completed.
func (w *serveWorkload) client(stream []int, rng *rand.Rand) []jobRecord {
	var out []jobRecord
	var done []int
	for _, spec := range stream {
		r := w.live.run(w.pool[spec])
		r.spec = spec
		out = append(out, r)
		if r.err != nil {
			continue
		}
		done = append(done, spec)
		for range warmPerCold {
			again := done[rng.IntN(len(done))]
			r = w.live.run(w.pool[again])
			r.spec, r.warm = again, true
			out = append(out, r)
		}
	}
	return out
}

func (w *serveWorkload) quality() (*experiment.SweepResult, string) {
	return w.refResults[0], w.refReports[0]
}

// mapePct calibrates the cost model once after every measurement.
func (w *serveWorkload) mapePct(b *bench) (float64, error) { return calibrationMAPE(b) }

func (w *serveWorkload) close() {
	if w.live != nil {
		w.live.stop()
		w.live = nil
	}
}

// liveServer is a started server with its HTTP front end.
type liveServer struct {
	srv    *server.Server
	hs     *http.Server
	served chan error
	dir    string
	base   string
	client *http.Client
}

// startServer serves a fresh cache directory under workDir on a
// loopback port.
func startServer(workDir string) (*liveServer, error) {
	dir, err := os.MkdirTemp(workDir, "serve-")
	if err != nil {
		return nil, err
	}
	srv, err := server.New(server.Config{
		CacheDir: dir, QueueCap: 4, JobWorkers: serveClients, CellBudget: serveClients,
		CellWorkers: 1, Retry: experiment.DefaultRetryPolicy(), Shared: true,
	})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	srv.Start()
	l := &liveServer{
		srv: srv, hs: &http.Server{Handler: srv.Handler()}, served: make(chan error, 1),
		dir: dir, base: "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * serveClients}},
	}
	go func() { l.served <- l.hs.Serve(ln) }()
	return l, nil
}

// stop drains the server, closes its listener and connections, and
// removes its cache directory.
func (l *liveServer) stop() {
	l.srv.Drain()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if l.hs.Shutdown(ctx) != nil {
		l.hs.Close()
	}
	<-l.served
	l.client.CloseIdleConnections()
	os.RemoveAll(l.dir)
}

// maxRefusals bounds resubmission after 429s.
const maxRefusals = 50

// run submits one job, follows its event stream to the end, and fetches
// its report.
func (l *liveServer) run(spec server.JobSpec) (r jobRecord) {
	r.spans = map[string]float64{}
	ms := func(d time.Duration) float64 { return float64(d.Microseconds()) / 1e3 }
	body, _ := json.Marshal(spec)
	t0 := time.Now()
	var st server.JobStatus
	for {
		code, data, err := l.do(http.MethodPost, "/jobs", body)
		if err != nil {
			r.err = err
			return r
		}
		if code == http.StatusTooManyRequests && r.refused < maxRefusals {
			r.refused++
			time.Sleep(20 * time.Millisecond)
			continue
		}
		if code != http.StatusAccepted {
			r.err = fmt.Errorf("submit: HTTP %d: %s", code, data)
			return r
		}
		if r.err = json.Unmarshal(data, &st); r.err != nil {
			return r
		}
		break
	}
	tSub := time.Now()
	r.spans["submit_ms"] = ms(tSub.Sub(t0))

	resp, err := l.client.Get(l.base + "/jobs/" + st.ID + "/events")
	if err != nil {
		r.err = err
		return r
	}
	tRun, tEnd := tSub, tSub
	var final server.JobState
	dec := json.NewDecoder(resp.Body)
	for {
		var e server.Event
		if dec.Decode(&e) != nil {
			break
		}
		now := time.Now()
		switch {
		case e.Event == "cell":
			if r.cells == 0 {
				r.cellMs = ms(now.Sub(tRun))
			}
			r.cells++
		case e.State == server.StateRunning:
			tRun = now
		case e.State.Terminal():
			tEnd, final = now, e.State
		}
	}
	resp.Body.Close()
	if final != server.StateDone {
		r.err = fmt.Errorf("job %s (seed %d) ended %q", st.ID, spec.Seed, final)
		return r
	}
	r.spans["queue_wait_ms"] = ms(tRun.Sub(tSub))
	r.spans["run_ms"] = ms(tEnd.Sub(tRun))

	code, data, err := l.do(http.MethodGet, "/jobs/"+st.ID+"/report", nil)
	tRep := time.Now()
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("report: HTTP %d: %s", code, data)
	}
	r.err = err
	r.report = string(data)
	r.spans["report_ms"] = ms(tRep.Sub(tEnd))
	r.latency = tRep.Sub(t0).Seconds()
	return r
}

// do performs one request and reads the whole response.
func (l *liveServer) do(method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, l.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := l.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}
