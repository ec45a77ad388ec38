package httpapi

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	"spatialsim/internal/geom"
	"spatialsim/internal/httpapi/httpapitest"
	"spatialsim/internal/index"
	"spatialsim/internal/serve"
)

// encode is the oracle: what json.NewEncoder(w).Encode writes for v.
func encode(t testing.TB, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatalf("oracle encode: %v", err)
	}
	return buf.Bytes()
}

func TestAppendFloatMatchesEncodingJSON(t *testing.T) {
	for _, f := range httpapitest.EdgeFloats {
		want, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendFloat(nil, f); !bytes.Equal(got, want) {
			t.Errorf("AppendFloat(%v) = %s, encoding/json %s", f, got, want)
		}
	}
}

func FuzzAppendJSONFloat(f *testing.F) {
	for _, v := range httpapitest.EdgeFloats {
		f.Add(math.Float64bits(v))
	}
	f.Fuzz(func(t *testing.T, bits uint64) {
		v := math.Float64frombits(bits)
		want, err := json.Marshal(v)
		if err != nil {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				t.Fatalf("encoding/json refused finite %v: %v", v, err)
			}
			return
		}
		if got := AppendFloat([]byte("x"), v); !bytes.Equal(got[1:], want) || got[0] != 'x' {
			t.Fatalf("AppendFloat(%v [%#x]) = %s, encoding/json %s", v, bits, got[1:], want)
		}
	})
}

// TestReplyMatchesEncodingJSON covers the item loop and every field kind
// against the oracle struct, including a reply past the pooled-buffer cap.
func TestReplyMatchesEncodingJSON(t *testing.T) {
	for _, n := range []int{0, 1, 40, 3000} {
		items := httpapitest.EdgeItems(n)
		shardErrs := []serve.ShardError{{Shard: 2, Err: "deadline <exceeded> & \"quoted\""}}
		want := encode(t, httpapitest.QueryResponse{
			Epoch: 7, Count: n, Items: httpapitest.Items(items),
			Degraded: true, ShardErrors: shardErrs,
		})
		b := NewReply(7, items)
		b.True("degraded")
		b.JSON("shard_errors", shardErrs)
		rec := httptest.NewRecorder()
		b.Send(rec)
		if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want) {
			t.Fatalf("n=%d: %d\n got %.300s\nwant %.300s", n, rec.Code, rec.Body.Bytes(), want)
		}
		if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(len(want)) {
			t.Fatalf("n=%d: Content-Length %q, body %d bytes", n, cl, len(want))
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Fatalf("n=%d: Content-Type %q", n, ct)
		}
	}
}

// TestReplyNonFiniteAnswers500 pins what encoding/json's
// UnsupportedValueError produced: no partial body, a 500 internal envelope.
func TestReplyNonFiniteAnswers500(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		items := httpapitest.EdgeItems(3)
		items[1].Box.Max.Y = bad
		var oracle bytes.Buffer
		err := json.NewEncoder(&oracle).Encode(httpapitest.QueryResponse{Items: httpapitest.Items(items)})
		if err == nil {
			t.Fatal("oracle encoded a non-finite float")
		}
		want := encode(t, ErrorEnvelope{Error: ErrorBody{Code: "internal", Message: err.Error()}})
		rec := httptest.NewRecorder()
		NewReply(0, items).Send(rec)
		if rec.Code != http.StatusInternalServerError || !bytes.Equal(rec.Body.Bytes(), want) {
			t.Fatalf("%v: %d %s, want 500 %s", bad, rec.Code, rec.Body.Bytes(), want)
		}
	}
}

func TestWriteJSONAndError(t *testing.T) {
	v := map[string]any{"a": []int{1, 2}, "b": "<&>", "c": 1e-7}
	rec := httptest.NewRecorder()
	WriteJSON(rec, v)
	if want := encode(t, v); rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want) {
		t.Fatalf("WriteJSON: %d %s, want %s", rec.Code, rec.Body.Bytes(), want)
	}
	if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(rec.Body.Len()) {
		t.Fatalf("WriteJSON Content-Length %q for %d bytes", cl, rec.Body.Len())
	}

	rec = httptest.NewRecorder()
	WriteJSON(rec, math.NaN())
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("WriteJSON(NaN): status %d", rec.Code)
	}

	rec = httptest.NewRecorder()
	Error(rec, http.StatusTeapot, "teapot", "short & stout")
	want := encode(t, ErrorEnvelope{Error: ErrorBody{Code: "teapot", Message: "short & stout"}})
	if rec.Code != http.StatusTeapot || !bytes.Equal(rec.Body.Bytes(), want) {
		t.Fatalf("Error: %d %s, want %s", rec.Code, rec.Body.Bytes(), want)
	}
}

// benchItems are 40 items with full-precision coordinates, the size of the
// lookup workload's small-range reply.
func benchItems() []index.Item {
	r := rand.New(rand.NewSource(1))
	items := make([]index.Item, 40)
	for i := range items {
		c := geom.V(r.Float64()*100, r.Float64()*100, r.Float64()*100)
		items[i] = index.Item{ID: int64(r.Intn(200000)), Box: geom.AABBFromCenter(c, geom.V(0.4, 0.3, 0.5))}
	}
	return items
}

// discardWriter is a ResponseWriter that keeps only its header map.
type discardWriter struct{ h http.Header }

func (d discardWriter) Header() http.Header         { return d.h }
func (d discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (d discardWriter) WriteHeader(int)             {}

// BenchmarkWriteItems compares the range/kNN reply writers: the removed
// path (copy into []itemJSON, reflect through encoding/json) and the
// append encoder.
func BenchmarkWriteItems(b *testing.B) {
	items := benchItems()
	w := discardWriter{h: http.Header{}}
	b.Run("encoding_json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			resp := httpapitest.QueryResponse{Epoch: 3, Count: len(items), Items: httpapitest.Items(items)}
			w.Header().Set("Content-Type", "application/json")
			if err := json.NewEncoder(w).Encode(resp); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("append", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			NewReply(3, items).Send(w)
		}
	})
}

// BenchmarkHTTPFloor measures the floor under a range request over
// loopback with one client: "noop" writes a fixed 6 052-byte body (the
// lookup workload's mean small reply), "range" serves the request through
// this package's path — Parse, Range, Context, Store.Query, NewReply, Send —
// over a 4-shard store. Their difference is what handler work costs above
// net/http itself.
func BenchmarkHTTPFloor(b *testing.B) {
	body := bytes.Repeat([]byte("x"), 6052)
	noop := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { write(w, http.StatusOK, body) })

	store, err := serve.New(serve.Config{Shards: 4})
	if err != nil {
		b.Fatal(err)
	}
	defer store.Close()
	r := rand.New(rand.NewSource(1))
	data := make([]index.Item, 20000)
	for i := range data {
		c := geom.V(r.Float64()*100, r.Float64()*100, r.Float64()*100)
		data[i] = index.Item{ID: int64(i), Box: geom.AABBFromCenter(c, geom.V(0.5, 0.5, 0.5))}
	}
	store.Bootstrap(data)
	rangeH := Handler(func(w http.ResponseWriter, r *http.Request, p Params) {
		box, limit, err := p.Range()
		if err != nil {
			BadRequest(w, err)
			return
		}
		ctx, cancel, err := p.Context(r.Context())
		if err != nil {
			BadRequest(w, err)
			return
		}
		defer cancel()
		rep := store.Query(serve.Request{Op: serve.OpRange, Query: box, Ctx: ctx})
		items := rep.Items
		if limit > 0 && len(items) > limit {
			items = items[:limit]
		}
		NewReply(rep.Epoch, items).Send(w)
	})
	// (s+1)^3 / 100^3 of 20 000 unit boxes ≈ 40 items for s = 11.6.
	paths := make([]string, 64)
	for i := range paths {
		x, y, z := r.Float64()*88, r.Float64()*88, r.Float64()*88
		paths[i] = fmt.Sprintf("/v1/range?minx=%g&miny=%g&minz=%g&maxx=%g&maxy=%g&maxz=%g", x, y, z, x+11.6, y+11.6, z+11.6)
	}

	for _, side := range []struct {
		name string
		h    http.Handler
	}{{"noop", noop}, {"range", rangeH}} {
		b.Run(side.name, func(b *testing.B) {
			ts := httptest.NewServer(side.h)
			defer ts.Close()
			client := ts.Client()
			var n int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				resp, err := client.Get(ts.URL + paths[i%len(paths)])
				if err != nil {
					b.Fatal(err)
				}
				m, err := io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK {
					b.Fatalf("status %d, %v", resp.StatusCode, err)
				}
				n += m
			}
			b.ReportMetric(float64(n)/float64(b.N), "body_B/op")
		})
	}
}
