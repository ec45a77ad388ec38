package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"spatialsim/internal/geom"
	"spatialsim/internal/index"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is the outcome of one workload run: one line of the result file.
type runResult struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// Timings holds every latency distribution of the run by class: sample
	// count, median, and the highest percentile with enough samples beyond.
	Timings map[string]timing `json:"timings,omitempty"`
	Errors  []string          `json:"errors,omitempty"`
}

// note keeps the first few error messages of a run for the report.
func (r *runResult) note(msg string) {
	if len(r.Errors) < 8 {
		r.Errors = append(r.Errors, msg)
	}
}

// fail counts one failed operation.
func (r *runResult) fail(format string, args ...any) {
	r.Failed++
	r.note(fmt.Sprintf(format, args...))
}

// runParams are the per-invocation knobs; everything else is fixed.
type runParams struct {
	seed    int64
	items   int
	warmup  time.Duration
	window  time.Duration
	setups  int // times the set-up is repeated; the median is reported
	restart int // graceful restart drills on a durable workload
}

const (
	sampleEvery  = 64 // one reply in 64 is kept and checked against the oracle
	crashUpdates = 3  // acknowledged updates posted right before the SIGKILL
)

// everything is a range box that holds the whole universe however far the
// timestep workload lets items drift.
var everything = geom.NewAABB(geom.V(-1e6, -1e6, -1e6), geom.V(1e6, 1e6, 1e6))

// runWorkload sets the workload's server up (several times, timing each),
// drives the last instance through warm-up and the measured window, runs the
// restart drills of a durable workload, and verifies the sampled replies.
func runWorkload(h *harness, w workloadSpec, p runParams) (*runResult, error) {
	res := &runResult{
		Workload: w.name, Seed: p.seed, Seconds: p.window.Seconds(),
		Metrics: make(map[string]metric), Timings: make(map[string]timing),
	}
	// The oracle is the generator's own bookkeeping, not part of the system's
	// set-up, so it is built once, outside the timed set-ups.
	ds := generateDataset(p.items)
	items := datasetItems(ds)
	orc := newOracle(items)

	var srv *server
	var args []string
	var dataDir string
	var setupS []float64
	for i := 0; i < p.setups; i++ {
		if srv != nil {
			srv.kill()
		}
		start := time.Now()
		d := generateDataset(p.items)
		args = w.serverArgs(p.items)
		if w.durable {
			dir, err := h.dataDir(w.name)
			if err != nil {
				return nil, err
			}
			dataDir = dir
			args = append(args, "-data-dir", dir)
		}
		var err error
		if srv, err = h.start(w.binary, args...); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		if err := loadServer(srv, datasetItems(d)); err != nil {
			return nil, fmt.Errorf("set-up: load: %w", err)
		}
		if err := probe(srv, orc, p.seed); err != nil {
			return nil, fmt.Errorf("set-up: first answer: %w", err)
		}
		setupS = append(setupS, time.Since(start).Seconds())
	}
	res.Metrics["setup_s"] = metric{median(setupS), "s"}

	// Measured phase: every client is a closed loop on its own connection.
	warmEnd := time.Now().Add(p.warmup)
	end := warmEnd.Add(p.window)
	var logs []*clientLog
	var wg sync.WaitGroup
	launch := func(run func(l *clientLog)) {
		l := &clientLog{}
		logs = append(logs, l)
		wg.Add(1)
		go func() {
			defer wg.Done()
			run(l)
		}()
	}
	for c := 0; c < w.readers; c++ {
		st := newStream(ds, p.seed, c, w.mix)
		launch(func(l *clientLog) { readLoop(l, srv.base, st, warmEnd, end) })
	}
	if w.joins {
		launch(func(l *clientLog) { joinLoop(l, srv.base, warmEnd, end) })
	}
	mv := newMover(p.seed, items)
	if w.updates {
		launch(func(l *clientLog) { updateLoop(l, srv.base, mv, orc, warmEnd, end) })
	}
	wg.Wait()

	rss, err := srv.rssPeakMB()
	if err != nil {
		return nil, err
	}
	res.Metrics["rss_peak_mb"] = metric{rss, "MiB"}
	if w.durable {
		if srv, err = restartDrills(h, w, args, dataDir, srv, orc, mv, p, res); err != nil {
			return nil, err
		}
	}
	srv.kill()

	// Fold the client logs, and verify the samples now that the server is
	// gone, so checking never competes with it.
	var lat [numClasses][]float64
	var joinCounts []int
	for _, l := range logs {
		res.Attempted += l.attempted
		res.Failed += l.failed
		for _, e := range l.errs {
			res.note(e)
		}
		for c := range lat {
			lat[c] = append(lat[c], l.lat[c]...)
		}
		joinCounts = append(joinCounts, l.joinCounts...)
		for _, s := range l.samples {
			res.Attempted++ // the check is an operation of its own: it can fail
			if err := orc.verify(s.req, s.body); err != nil {
				res.fail("%s %d/%d: %v", s.req.class, s.req.client, s.req.seq, err)
			}
		}
	}
	var reads []float64
	for c := classRange; c <= classJoin; c++ {
		reads = append(reads, lat[c]...)
	}
	for c := class(0); c < numClasses; c++ {
		if len(lat[c]) > 0 {
			res.Timings[c.String()] = summarise(lat[c], 0.99)
		}
	}
	if len(reads) == 0 {
		return nil, errors.New("no read completed inside the measured window")
	}
	all := summarise(reads, w.tailQ)
	res.Timings["read"] = all
	res.Metrics["read_p50_us"] = metric{all.P50, "us"}
	res.Metrics["read_tail_us"] = metric{all.Tail, "us"}
	res.Metrics["read_ops_s"] = metric{float64(all.N) / p.window.Seconds(), "1/s"}
	for _, c := range []class{classRange, classKNN, classScan} {
		if t, ok := res.Timings[c.String()]; ok {
			res.Metrics[c.String()+"_p50_us"] = metric{t.P50, "us"}
			res.Metrics[c.String()+"_p99_us"] = metric{t.Tail, "us"}
		}
	}
	if t, ok := res.Timings["join"]; ok {
		res.Metrics["join_p50_ms"] = metric{t.P50 / 1e3, "ms"}
	}
	if t, ok := res.Timings["update"]; ok {
		res.Metrics["update_p50_ms"] = metric{t.P50 / 1e3, "ms"}
	}
	if len(joinCounts) > 0 {
		want := orc.joinCount()
		res.Metrics["join_pairs"] = metric{float64(want), "count"}
		for _, got := range joinCounts {
			res.Attempted++
			if got != want {
				res.fail("join: %d pairs, truth has %d", got, want)
			}
		}
	}
	return res, nil
}

// probe asks one small range query and checks the answer: the "first correct
// answer" that ends a set-up or a restart.
func probe(srv *server, orc *oracle, seed int64) error {
	it := orc.base[int(uint64(seed)%uint64(len(orc.base)))]
	r := request{class: classRange, box: it.Box.Expand(universeSide / 50)}
	r.path = rangePath(r.box, false)
	var buf bytes.Buffer
	if _, err := fetch(http.MethodGet, srv.base+r.path, nil, &buf); err != nil {
		return err
	}
	if degraded(buf.Bytes()) {
		return errors.New("degraded reply")
	}
	return orc.verify(r, buf.Bytes())
}

// clientLog is what one closed-loop client records.
type clientLog struct {
	lat        [numClasses][]float64 // microseconds, inside the window only
	attempted  int
	failed     int
	errs       []string
	samples    []sampled
	joinCounts []int
}

type sampled struct {
	req  request
	body []byte
}

func (l *clientLog) failure(err error) {
	l.failed++
	if len(l.errs) < 4 {
		l.errs = append(l.errs, err.Error())
	}
}

// inWindow reports whether an operation that completed at done counts; ops
// finishing during warm-up or after the window closes are discarded.
func inWindow(done, warmEnd, end time.Time) bool {
	return !done.Before(warmEnd) && !done.After(end)
}

func readLoop(l *clientLog, base string, st *stream, warmEnd, end time.Time) {
	var buf bytes.Buffer
	for op := 0; time.Now().Before(end); op++ {
		r := st.nextRequest()
		d, err := fetch(http.MethodGet, base+r.path, nil, &buf)
		if !inWindow(time.Now(), warmEnd, end) {
			continue
		}
		l.attempted++
		switch {
		case err != nil:
			l.failure(err)
		case degraded(buf.Bytes()):
			l.failure(fmt.Errorf("%s: degraded reply", r.path))
		default:
			l.lat[r.class] = append(l.lat[r.class], micros(d))
			if op%sampleEvery == 0 {
				l.samples = append(l.samples, sampled{r, bytes.Clone(buf.Bytes())})
			}
		}
	}
}

func joinLoop(l *clientLog, base string, warmEnd, end time.Time) {
	var buf bytes.Buffer
	url := base + joinPath()
	for time.Now().Before(end) {
		d, err := fetch(http.MethodGet, url, nil, &buf)
		if !inWindow(time.Now(), warmEnd, end) {
			continue
		}
		l.attempted++
		var rep joinReply
		if err == nil && degraded(buf.Bytes()) {
			err = errors.New("join: degraded reply")
		}
		if err == nil {
			err = json.Unmarshal(buf.Bytes(), &rep)
		}
		if err != nil {
			l.failure(err)
			continue
		}
		l.lat[classJoin] = append(l.lat[classJoin], micros(d))
		l.joinCounts = append(l.joinCounts, rep.Count)
	}
}

// postUpdate posts one batch of moved items and, once the server has
// acknowledged it, records the new boxes under the epoch that published them.
func postUpdate(base string, batch []index.Item, orc *oracle, buf *bytes.Buffer) (time.Duration, error) {
	d, err := fetch(http.MethodPost, base+"/v1/update", updateBody(batch), buf)
	if err != nil {
		return d, err
	}
	var rep updateReply
	if err := json.Unmarshal(buf.Bytes(), &rep); err != nil {
		return d, err
	}
	if rep.Applied != len(batch) {
		return d, fmt.Errorf("update applied %d of %d", rep.Applied, len(batch))
	}
	orc.record(rep.Epoch, batch)
	return d, nil
}

// updateLoop is the simulation step: move a batch, wait for the new epoch.
// Only this goroutine touches the oracle's history until the window closes.
func updateLoop(l *clientLog, base string, mv *mover, orc *oracle, warmEnd, end time.Time) {
	var buf bytes.Buffer
	for time.Now().Before(end) {
		d, err := postUpdate(base, mv.nextBatch(), orc, &buf)
		// Every update changes what later reads must return, so each one
		// counts as attempted; only its latency is gated by the window.
		l.attempted++
		if err != nil {
			l.failure(err)
			continue
		}
		if !inWindow(time.Now(), warmEnd, end) {
			continue
		}
		l.lat[classUpdate] = append(l.lat[classUpdate], micros(d))
	}
}

// restartDrills runs the durable workload's epilogue on the same data
// directory: graceful SIGTERM→restart drills timed from exec to the first
// verified answer, the on-disk footprint after the last final snapshot, and
// one SIGKILL right after acknowledged updates, after which every item must
// read back with its last acknowledged box.
func restartDrills(h *harness, w workloadSpec, args []string, dataDir string, srv *server, orc *oracle, mv *mover, p runParams, res *runResult) (*server, error) {
	var restartUS []float64
	for i := 0; i < p.restart; i++ {
		res.Attempted++
		if err := srv.terminate(30 * time.Second); err != nil {
			res.fail("restart drill %d: %v", i, err)
		}
		if i == p.restart-1 {
			n, err := dirBytes(dataDir)
			if err != nil {
				return nil, err
			}
			res.Metrics["disk_bytes_per_item"] = metric{float64(n) / float64(len(orc.base)), "bytes"}
		}
		start := time.Now()
		var err error
		if srv, err = h.start(w.binary, args...); err != nil {
			return nil, fmt.Errorf("restart drill %d: %w", i, err)
		}
		if err := probe(srv, orc, p.seed+int64(i)); err != nil {
			res.fail("restart drill %d: first answer: %v", i, err)
			continue
		}
		restartUS = append(restartUS, micros(time.Since(start)))
	}
	if len(restartUS) > 0 {
		t := summarise(restartUS, 0.99)
		res.Timings["restart"] = t
		res.Metrics["restart_p50_ms"] = metric{t.P50 / 1e3, "ms"}
	}

	var buf bytes.Buffer
	for i := 0; i < crashUpdates; i++ {
		res.Attempted++
		if _, err := postUpdate(srv.base, mv.nextBatch(), orc, &buf); err != nil {
			res.fail("crash drill: update: %v", err)
		}
	}
	srv.kill()
	srv, err := h.start(w.binary, args...)
	if err != nil {
		return nil, fmt.Errorf("crash drill: %w", err)
	}
	res.Attempted++
	if _, err := fetch(http.MethodGet, srv.base+rangePath(everything, false), nil, &buf); err != nil {
		res.fail("crash drill: %v", err)
		return srv, nil
	}
	rep, err := decodeQueryReply(buf.Bytes())
	if err == nil {
		err = orc.verifyAll(rep)
	}
	if err != nil {
		res.fail("crash drill: acknowledged state lost: %v", err)
	}
	return srv, nil
}
