// Package httpapi is the one HTTP surface cmd/spatialserver and
// cmd/spatialcluster serve: the /v1 handlers over a Backend that each binary
// adapts, with request ids, per-route metrics, tracing, the slow-query log,
// one error table and graceful shutdown (server.go); one query-string parser
// whose readers refuse what cannot be answered (params.go); one streaming
// decoder for update bodies that agrees with encoding/json on every body
// (decode.go); and one encoder — read replies appended into pooled buffers,
// the error envelope and the remaining JSON replies — that sets
// Content-Length and writes each body once (encode.go).
//
// Every range and kNN read lends the back end a result buffer from
// index.GetItems as serve.Request.Buf, and takes the array Result.Items
// ended in back once the reply bytes are written — on error, degraded and
// traced replies too — so a served read grows no result slice from nil.
package httpapi

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/url"
	"runtime"
	"strconv"
	"strings"
	"time"

	"spatialsim/internal/geom"
	"spatialsim/internal/join"
	"spatialsim/internal/obs"
	"spatialsim/internal/serve"
)

// maxQueryTimeout bounds ?timeout=: anything beyond it is a client bug (a
// typo like 300m for 300ms would silently pin a slot for five hours), so it
// answers 400 instead of being accepted.
const maxQueryTimeout = time.Hour

// Params is a request's query string, parsed once. Get keeps
// url.Values.Get's meaning: the first occurrence of a key wins, and an
// absent key reads as "".
type Params []param

type param struct{ key, val string }

// Parse splits a raw query string into the pairs url.ParseQuery keeps —
// pairs with a semicolon or a malformed escape are dropped, as it drops
// them — unescaping only the pairs that need it.
func Parse(raw string) Params {
	p := make(Params, 0, strings.Count(raw, "&")+1)
	for raw != "" {
		var kv string
		kv, raw, _ = strings.Cut(raw, "&")
		if kv == "" || strings.IndexByte(kv, ';') >= 0 {
			continue
		}
		key, val, _ := strings.Cut(kv, "=")
		if strings.ContainsAny(kv, "%+") {
			var err1, err2 error
			key, err1 = url.QueryUnescape(key)
			val, err2 = url.QueryUnescape(val)
			if err1 != nil || err2 != nil {
				continue
			}
		}
		p = append(p, param{key, val})
	}
	return p
}

// Get returns the first value of key, "" when absent.
func (p Params) Get(key string) string {
	for _, kv := range p {
		if kv.key == key {
			return kv.val
		}
	}
	return ""
}

// Flag reports an opt-in such as ?trace=1 or ?plan=1.
func (p Params) Flag(key string) bool { return p.Get(key) == "1" }

// Handler is an endpoint over its request's parsed query string.
type Handler func(w http.ResponseWriter, r *http.Request, p Params)

// ServeHTTP parses the query string once and hands it to h.
func (h Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h(w, r, Parse(r.URL.RawQuery))
}

// badParam names the parameter and what it must be.
func badParam(key, val, want string) error {
	if val == "" {
		return fmt.Errorf("%s is missing: want %s", key, want)
	}
	return fmt.Errorf("%s=%q: want %s", key, val, want)
}

// finite reads a required finite float; NaN and ±Inf are refused like any
// other malformed value.
func (p Params) finite(key string) (float64, error) {
	s := p.Get(key)
	f, err := strconv.ParseFloat(s, 64)
	if err != nil || math.IsNaN(f) || math.IsInf(f, 0) {
		return 0, badParam(key, s, "a finite number")
	}
	return f, nil
}

// integer reads an optional integer: def when absent, an error naming key
// when present but malformed.
func (p Params) integer(key string, def int) (int, error) {
	s := p.Get(key)
	if s == "" {
		return def, nil
	}
	n, err := strconv.Atoi(s)
	if err != nil {
		return 0, badParam(key, s, "an integer")
	}
	return n, nil
}

// point reads three required finite floats.
func (p Params) point(xk, yk, zk string) (geom.Vec3, error) {
	x, err := p.finite(xk)
	if err != nil {
		return geom.Vec3{}, err
	}
	y, err := p.finite(yk)
	if err != nil {
		return geom.Vec3{}, err
	}
	z, err := p.finite(zk)
	if err != nil {
		return geom.Vec3{}, err
	}
	return geom.V(x, y, z), nil
}

// Range reads a range query: the box minx..maxz and the reply cap limit
// (absent or <= 0: every item).
func (p Params) Range() (geom.AABB, int, error) {
	lo, err := p.point("minx", "miny", "minz")
	var hi geom.Vec3
	if err == nil {
		hi, err = p.point("maxx", "maxy", "maxz")
	}
	if err != nil {
		return geom.AABB{}, 0, fmt.Errorf("range needs finite float params minx..maxz: %w", err)
	}
	limit, err := p.integer("limit", 0)
	return geom.NewAABB(lo, hi), limit, err
}

// KNN reads a kNN query: the point x, y, z and k (default 10). The 1..1024
// cap bounds per-request work: every overlapping shard gathers up to k
// candidates before the global merge.
func (p Params) KNN() (geom.Vec3, int, error) {
	pt, err := p.point("x", "y", "z")
	if err != nil {
		return geom.Vec3{}, 0, fmt.Errorf("knn needs finite float params x, y, z: %w", err)
	}
	k, err := p.integer("k", 10)
	if err != nil {
		return geom.Vec3{}, 0, err
	}
	if k <= 0 || k > 1024 {
		return geom.Vec3{}, 0, errors.New("k out of range (1..1024)")
	}
	return pt, k, nil
}

// Join reads an epsilon self-join: eps (finite, >= 0), algo, workers and
// the reply cap limit (default 1000, 1..100000), which becomes
// JoinRequest.Limit: the store builds only the first limit pairs and counts
// the rest exactly. Workers above GOMAXPROCS are clamped here, at the door:
// the engine honours an explicit budget (library callers and benchmarks rely
// on that), so a client asking for 100 000 must not get 100 000 goroutines.
// The join is the grid alone, so algo may be absent, auto or grid; any other
// name is refused rather than ignored, so a client that asks for another
// algorithm learns that it does not run.
func (p Params) Join() (serve.JoinRequest, error) {
	var jr serve.JoinRequest
	s := p.Get("eps")
	eps, err := strconv.ParseFloat(s, 64)
	if err != nil || !(eps >= 0) || math.IsInf(eps, 1) {
		return jr, fmt.Errorf("join needs %w", badParam("eps", s, "a non-negative finite number"))
	}
	jr.Eps = eps
	switch name := p.Get("algo"); name {
	case "", "auto", join.Algorithm:
	default:
		return jr, badParam("algo", name, "auto|grid")
	}
	if jr.Workers, err = p.integer("workers", 0); err != nil {
		return jr, err
	}
	jr.Workers = min(jr.Workers, runtime.GOMAXPROCS(0))
	if jr.Limit, err = p.integer("limit", 1000); err != nil {
		return jr, err
	}
	if jr.Limit <= 0 || jr.Limit > 100000 {
		return jr, errors.New("limit out of range (1..100000)")
	}
	return jr, nil
}

// Context derives a query's context from the request's own (so a client
// that goes away cancels the query), tightened by ?timeout= when present.
// Zero, negative, unparsable and absurdly large (> 1h) timeouts are errors.
// The returned cancel must be called when err is nil.
func (p Params) Context(ctx context.Context) (context.Context, context.CancelFunc, error) {
	s := p.Get("timeout")
	if s == "" {
		return ctx, func() {}, nil
	}
	d, err := time.ParseDuration(s)
	if err != nil || d <= 0 {
		return nil, nil, badParam("timeout", s, "a positive duration (e.g. 50ms)")
	}
	if d > maxQueryTimeout {
		return nil, nil, errors.New("timeout exceeds the 1h maximum")
	}
	ctx, cancel := context.WithTimeout(ctx, d)
	return ctx, cancel, nil
}

// UpdateResponse reports the epoch an update batch was published as.
type UpdateResponse struct {
	Epoch   uint64 `json:"epoch"`
	Applied int    `json:"applied"`
	// Trace is the update's span tree, present only with ?trace=1.
	Trace *obs.SpanJSON `json:"trace,omitempty"`
}

// MaxUpdateBody caps an update body at 64 MiB: well above one POST of
// 200 000 items (about 26 MiB), and a bound on the batch a client can make
// the decoder build.
const MaxUpdateBody = 64 << 20

// readUpdate decodes a POST update body of at most limit bytes into one
// batch, upserts first (decode.go), under a "decode" span of the request's
// trace. It answers 405 to any other method, 413 to a longer body and 400
// to one that does not decode; ok is false when it has answered. A body
// declared longer than limit is refused before any of it is read.
func readUpdate(w http.ResponseWriter, r *http.Request, limit int64) (batch []serve.Update, ok bool) {
	if r.Method != http.MethodPost {
		Error(w, http.StatusMethodNotAllowed, "method_not_allowed", "update requires POST")
		return nil, false
	}
	span := obs.SpanFromContext(r.Context()).Child("decode")
	var upserts int
	var read int64
	var err error
	if r.ContentLength > limit {
		err = &http.MaxBytesError{Limit: limit}
	} else {
		batch, upserts, read, err = decodeUpdate(http.MaxBytesReader(w, r.Body, limit))
	}
	span.Set("bytes", read)
	span.Set("upserts", upserts)
	span.Set("deletes", len(batch)-upserts)
	span.End()
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		Error(w, http.StatusRequestEntityTooLarge, "too_large",
			fmt.Sprintf("update body exceeds %d bytes", tooLarge.Limit))
		return nil, false
	}
	if err != nil {
		BadRequest(w, fmt.Errorf("bad update body: %w", err))
		return nil, false
	}
	return batch, true
}
