// Package httpapi is the HTTP/JSON wire code cmd/spatialserver and
// cmd/spatialcluster share: one query-string parser whose readers refuse
// what cannot be answered (params.go), and one encoder — range/kNN replies
// appended into pooled buffers, the error envelope and the remaining JSON
// replies — that sets Content-Length and writes each body once (encode.go).
package httpapi

import (
	"context"
	"encoding/json"
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

// Join reads an epsilon self-join: eps (finite, >= 0), algo (auto unless
// named), workers and the reply cap limit (default 1000, 1..100000; it
// bounds the body, not the join — the full pair set is computed and counted
// either way). Workers above GOMAXPROCS are clamped here, at the door: the
// engine honours an explicit budget (library callers and benchmarks rely on
// that), so a client asking for 100 000 must not get 100 000 goroutines.
func (p Params) Join() (serve.JoinRequest, int, error) {
	var jr serve.JoinRequest
	s := p.Get("eps")
	eps, err := strconv.ParseFloat(s, 64)
	if err != nil || !(eps >= 0) || math.IsInf(eps, 1) {
		return jr, 0, fmt.Errorf("join needs %w", badParam("eps", s, "a non-negative finite number"))
	}
	jr.Eps = eps
	if name := p.Get("algo"); name != "" && name != "auto" {
		if jr.Algo, err = join.ParseAlgorithm(name); err != nil {
			return jr, 0, err
		}
		jr.Force = true
	}
	if jr.Workers, err = p.integer("workers", 0); err != nil {
		return jr, 0, err
	}
	jr.Workers = min(jr.Workers, runtime.GOMAXPROCS(0))
	limit, err := p.integer("limit", 1000)
	if err != nil {
		return jr, 0, err
	}
	if limit <= 0 || limit > 100000 {
		return jr, 0, errors.New("limit out of range (1..100000)")
	}
	return jr, limit, nil
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

// ItemJSON is the wire shape of one item in an update body: id plus box
// corners as [x, y, z] triples (replies append the same shape directly).
type ItemJSON struct {
	ID  int64      `json:"id"`
	Min [3]float64 `json:"min"`
	Max [3]float64 `json:"max"`
}

// UpdateRequest is the wire shape of an update batch.
type UpdateRequest struct {
	Upserts []ItemJSON `json:"upserts"`
	Deletes []int64    `json:"deletes"`
}

// ReadUpdate decodes a POST update body into one batch, upserts first. It
// answers 405 to any other method and 400 to a body that does not decode;
// ok is false when it has answered.
func ReadUpdate(w http.ResponseWriter, r *http.Request) (batch []serve.Update, ok bool) {
	if r.Method != http.MethodPost {
		Error(w, http.StatusMethodNotAllowed, "method_not_allowed", "update requires POST")
		return nil, false
	}
	var req UpdateRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		BadRequest(w, fmt.Errorf("bad update body: %w", err))
		return nil, false
	}
	batch = make([]serve.Update, 0, len(req.Upserts)+len(req.Deletes))
	for _, up := range req.Upserts {
		box := geom.NewAABB(geom.V(up.Min[0], up.Min[1], up.Min[2]), geom.V(up.Max[0], up.Max[1], up.Max[2]))
		batch = append(batch, serve.Update{ID: up.ID, Box: box})
	}
	for _, id := range req.Deletes {
		batch = append(batch, serve.Update{ID: id, Delete: true})
	}
	return batch, true
}
