package main

import (
	"math"
	"math/rand"
	"strconv"

	"spatialsim/internal/datagen"
	"spatialsim/internal/geom"
	"spatialsim/internal/index"
)

// The fixed load shape. Every constant here is part of the benchmark's
// definition: changing one starts a new baseline.
const (
	// universeSide is the servers' own default universe (0..100 per axis).
	// The neuron generator's default universe is 6.583 units wide; the
	// benchmark runs the same generator with every length scaled by
	// 100/6.583, because spatialcluster fixes its tile placement from a
	// bootstrap set in the 0..100 universe (see clusterPlacementSeedItems)
	// and all five workloads must share one dataset.
	universeSide      = 100.0
	datasetSeed       = 1
	segmentsPerNeuron = 1000
	fullItems         = 200 * segmentsPerNeuron
	smokeItems        = 2 * segmentsPerNeuron

	selRange = 1e-4 // ~40 results on the full dataset
	selScan  = 1e-1 // ~16 000 matches, replied with limit=16 (see README: retuned once from 5e-2)
	scanLim  = 16
	knnK     = 8

	// joinEps is the issue's eps=0.02 in the 6.583-unit universe, scaled.
	joinEps = 0.3

	// updateBatch items move per update; moveStep bounds the translation of
	// one update ("massive but minimal movement": 0.1 in the 6.583-unit
	// universe, scaled).
	updateBatch = 2 * segmentsPerNeuron
	moveStep    = 1.5

	queryChunk = 4096
)

// class is one request class. The first three are the read classes a stream
// mixes; join and update requests are generated by their own loops.
type class int

const (
	classRange class = iota
	classKNN
	classScan
	classJoin
	classUpdate
	numClasses
)

var classNames = [numClasses]string{"range", "knn", "scan", "join", "update"}

func (c class) String() string { return classNames[c] }

// generateDataset is the one dataset of the benchmark: thin clustered neuron
// segments, the paper's data character, in the servers' universe. Its seed is
// part of the fixed load shape, like its size: how dense the neurons lie sets
// how many items a query of a given size matches, and that differed by up to
// 9 % between dataset seeds — more than the bounds the metrics must hold. The
// run's -seed drives the request streams and the update batches.
func generateDataset(items int) *datagen.Dataset {
	cfg := datagen.DefaultNeuronConfig(items/segmentsPerNeuron, segmentsPerNeuron, datasetSeed)
	cfg.Universe = geom.NewAABB(geom.V(0, 0, 0), geom.V(universeSide, universeSide, universeSide))
	cfg.SegmentLength = universeSide / 120
	cfg.SegmentRadius = universeSide / 1200
	return datagen.GenerateNeurons(cfg)
}

func datasetItems(d *datagen.Dataset) []index.Item {
	items := make([]index.Item, d.Len())
	for i := range d.Elements {
		items[i] = index.Item{ID: d.Elements[i].ID, Box: d.Elements[i].Box}
	}
	return items
}

// request is one generated read; seq is its position in the (class, client)
// query sequence, which names the query in the trace.
type request struct {
	class  class
	client int
	seq    int
	path   string
	box    geom.AABB // range and scan
	point  geom.Vec3 // knn
}

// stream is one client's deterministic request sequence. Each read class has
// its own query sequence per client, produced in chunks by the datagen query
// generators; a separate seeded source picks the class of the next request,
// so the n-th query of a class is the same whatever mix surrounds it. No
// query repeats: every chunk has a fresh seed and every query its own jitter.
type stream struct {
	d      *datagen.Dataset
	seed   int64
	client int
	mix    [3]int // percent of range, knn, scan; sums to 100
	pick   *rand.Rand
	next   [3]int
	boxes  [3][]geom.AABB // current chunk of range / scan queries
	points []geom.Vec3    // current chunk of knn points
}

func newStream(d *datagen.Dataset, seed int64, client int, mix [3]int) *stream {
	return &stream{
		d: d, seed: seed, client: client, mix: mix,
		pick: rand.New(rand.NewSource(chunkSeed(seed, numClasses, client, 0))),
	}
}

// chunkSeed spreads (seed, class, client, chunk) over distinct generator
// seeds.
func chunkSeed(seed int64, c class, client, chunk int) int64 {
	return ((seed*131+int64(c))*131+int64(client))*1_000_003 + int64(chunk)
}

func (s *stream) nextRequest() request {
	p := s.pick.Intn(100)
	switch {
	case p < s.mix[0]:
		return s.nextOf(classRange)
	case p < s.mix[0]+s.mix[1]:
		return s.nextOf(classKNN)
	default:
		return s.nextOf(classScan)
	}
}

// nextOf returns the next unused query of class c for this client.
func (s *stream) nextOf(c class) request {
	seq := s.next[c]
	s.next[c]++
	i := seq % queryChunk
	if i == 0 {
		cs := chunkSeed(s.seed, c, s.client, seq/queryChunk)
		switch c {
		case classRange:
			s.boxes[c] = jitter(datagen.GenerateDataCenteredQueries(s.d, queryChunk, selRange, cs), cs)
		case classScan:
			s.boxes[c] = jitter(datagen.GenerateDataCenteredQueries(s.d, queryChunk, selScan, cs), cs)
		case classKNN:
			s.points = datagen.GenerateKNNQueries(queryChunk, s.d.Universe, cs)
		}
	}
	r := request{class: c, client: s.client, seq: seq}
	if c == classKNN {
		r.point = s.points[i]
		r.path = knnPath(r.point)
	} else {
		r.box = s.boxes[c][i]
		r.path = rangePath(r.box, c == classScan)
	}
	return r
}

// jitter shifts every box by its own offset of up to one segment length per
// axis. Data-centred queries are boxes of one size around an element, so two
// draws of the same element would otherwise be the same query; a run draws
// about as many queries as there are elements.
func jitter(boxes []geom.AABB, seed int64) []geom.AABB {
	r := rand.New(rand.NewSource(^seed))
	off := func() float64 { return (r.Float64()*2 - 1) * universeSide / 120 }
	for i := range boxes {
		boxes[i] = boxes[i].Translate(geom.V(off(), off(), off()))
	}
	return boxes
}

// appendFloat writes f in its shortest round-trip form, so that a server
// parses back exactly the generated value. The plus sign of a positive
// exponent is dropped: in a URL query it would read as a space.
func appendFloat(b []byte, f float64) []byte {
	n := len(b)
	b = strconv.AppendFloat(b, f, 'g', -1, 64)
	for i := n; i < len(b); i++ {
		if b[i] == '+' {
			return append(b[:i], b[i+1:]...)
		}
	}
	return b
}

// rangePath formats a /v1/range request.
func rangePath(q geom.AABB, scan bool) string {
	b := make([]byte, 0, 160)
	b = append(b, "/v1/range?minx="...)
	b = appendFloat(b, q.Min.X)
	b = append(b, "&miny="...)
	b = appendFloat(b, q.Min.Y)
	b = append(b, "&minz="...)
	b = appendFloat(b, q.Min.Z)
	b = append(b, "&maxx="...)
	b = appendFloat(b, q.Max.X)
	b = append(b, "&maxy="...)
	b = appendFloat(b, q.Max.Y)
	b = append(b, "&maxz="...)
	b = appendFloat(b, q.Max.Z)
	if scan {
		b = append(b, "&limit="...)
		b = strconv.AppendInt(b, scanLim, 10)
	}
	return string(b)
}

func knnPath(p geom.Vec3) string {
	b := make([]byte, 0, 96)
	b = append(b, "/v1/knn?x="...)
	b = appendFloat(b, p.X)
	b = append(b, "&y="...)
	b = appendFloat(b, p.Y)
	b = append(b, "&z="...)
	b = appendFloat(b, p.Z)
	b = append(b, "&k="...)
	b = strconv.AppendInt(b, knnK, 10)
	return string(b)
}

func joinPath() string {
	return "/v1/join?eps=" + strconv.FormatFloat(joinEps, 'g', -1, 64) + "&limit=1"
}

// updateBody encodes one POST /v1/update body of upserts.
func updateBody(items []index.Item) []byte {
	b := make([]byte, 0, 32+len(items)*160)
	b = append(b, `{"upserts":[`...)
	for i, it := range items {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"id":`...)
		b = strconv.AppendInt(b, it.ID, 10)
		b = append(b, `,"min":[`...)
		b = appendFloat(b, it.Box.Min.X)
		b = append(b, ',')
		b = appendFloat(b, it.Box.Min.Y)
		b = append(b, ',')
		b = appendFloat(b, it.Box.Min.Z)
		b = append(b, `],"max":[`...)
		b = appendFloat(b, it.Box.Max.X)
		b = append(b, ',')
		b = appendFloat(b, it.Box.Max.Y)
		b = append(b, ',')
		b = appendFloat(b, it.Box.Max.Z)
		b = append(b, `]}`...)
	}
	b = append(b, `]}`...)
	return b
}

// mover produces the timestep workload's update batches: batch j translates
// the next updateBatch items (two whole neurons on the full dataset, wrapping
// round) by one seeded vector no longer than moveStep. It keeps the current
// box of every item so that successive moves compose.
type mover struct {
	seed  int64
	cur   []index.Item // indexed by ID (IDs are dense from 0)
	batch int
}

func newMover(seed int64, items []index.Item) *mover {
	return &mover{seed: seed, cur: append([]index.Item(nil), items...)}
}

// nextBatch advances the state and returns the moved items with their new
// boxes.
func (m *mover) nextBatch() []index.Item {
	r := rand.New(rand.NewSource(chunkSeed(m.seed, classUpdate, 0, m.batch)))
	d := geom.V(r.Float64()*2-1, r.Float64()*2-1, r.Float64()*2-1).Scale(moveStep / math.Sqrt(3))
	n := len(m.cur)
	size := updateBatch
	if size > n {
		size = n
	}
	first := (m.batch * size) % n
	m.batch++
	out := make([]index.Item, size)
	for i := range out {
		it := &m.cur[(first+i)%n]
		it.Box = it.Box.Translate(d)
		out[i] = *it
	}
	return out
}
