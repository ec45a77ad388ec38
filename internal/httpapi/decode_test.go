package httpapi_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"
	"unsafe"

	"spatialsim/internal/geom"
	"spatialsim/internal/httpapi"
	"spatialsim/internal/httpapi/httpapitest"
	"spatialsim/internal/serve"
)

// reference is the oracle: the status and batch readUpdate answered when it
// decoded through encoding/json — json.NewDecoder over the capped body into
// the wire struct, then the batch, upserts first.
func reference(body []byte, limit int64) (int, []serve.Update) {
	var req httpapitest.UpdateRequest
	err := json.NewDecoder(http.MaxBytesReader(nil, io.NopCloser(bytes.NewReader(body)), limit)).Decode(&req)
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return http.StatusRequestEntityTooLarge, nil
	}
	if err != nil {
		return http.StatusBadRequest, nil
	}
	batch := make([]serve.Update, 0, len(req.Upserts)+len(req.Deletes))
	for _, up := range req.Upserts {
		box := geom.NewAABB(geom.V(up.Min[0], up.Min[1], up.Min[2]), geom.V(up.Max[0], up.Max[1], up.Max[2]))
		batch = append(batch, serve.Update{ID: up.ID, Box: box})
	}
	for _, id := range req.Deletes {
		batch = append(batch, serve.Update{ID: id, Delete: true})
	}
	return http.StatusOK, batch
}

// decode runs readUpdate over body with its length undeclared, so that the
// cap is met while streaming.
func decode(body []byte, limit int64) (int, []serve.Update, []byte) {
	r := httptest.NewRequest(http.MethodPost, "/v1/update", bytes.NewReader(body))
	r.ContentLength = -1
	w := httptest.NewRecorder()
	if batch, ok := httpapi.ReadUpdate(w, r, limit); ok {
		return http.StatusOK, batch, nil
	}
	return w.Code, nil, w.Body.Bytes()
}

// agree fails unless readUpdate answers body as the reference does: the
// same status and, when accepted, the same batch, floats bit for bit.
func agree(t *testing.T, body []byte, limit int64) (int, []serve.Update) {
	t.Helper()
	want, wantBatch := reference(body, limit)
	got, batch, reply := decode(body, limit)
	if got != want {
		t.Fatalf("%.300q (cap %d): status %d %s, encoding/json %d", body, limit, got, reply, want)
	}
	if len(batch) != len(wantBatch) {
		t.Fatalf("%.300q: %d updates, encoding/json %d", body, len(batch), len(wantBatch))
	}
	for i, u := range batch {
		if !sameUpdate(u, wantBatch[i]) {
			t.Fatalf("%.300q: update %d is %+v, encoding/json %+v", body, i, u, wantBatch[i])
		}
	}
	return got, batch
}

func sameUpdate(a, b serve.Update) bool {
	fa := [6]float64{a.Box.Min.X, a.Box.Min.Y, a.Box.Min.Z, a.Box.Max.X, a.Box.Max.Y, a.Box.Max.Z}
	fb := [6]float64{b.Box.Min.X, b.Box.Min.Y, b.Box.Min.Z, b.Box.Max.X, b.Box.Max.Y, b.Box.Max.Z}
	for i := range fa {
		if math.Float64bits(fa[i]) != math.Float64bits(fb[i]) {
			return false
		}
	}
	return a.ID == b.ID && a.Delete == b.Delete
}

func up(id int64, lo, hi geom.Vec3) serve.Update {
	return serve.Update{ID: id, Box: geom.NewAABB(lo, hi)}
}

func del(id int64) serve.Update { return serve.Update{ID: id, Delete: true} }

var (
	origin = geom.V(0, 0, 0)
	one    = geom.V(1, 1, 1)
)

// nested is a top-level object holding one member nested depth deep in all.
func nested(depth int) string {
	return `{"x":` + strings.Repeat("[", depth-1) + strings.Repeat("]", depth-1) + `,"deletes":[1]}`
}

// updateCases pin the decoder's accept/refuse decisions and, where batch is
// set, the batch; every case is also checked against the reference. cut
// caps the body that many bytes short of its length.
var updateCases = []struct {
	name   string
	body   string
	cut    int
	status int
	batch  []serve.Update
}{
	{"canonical", `{"upserts":[{"id":1,"min":[1,2,3],"max":[4,5,6]}],"deletes":[7]}`, 0, 200,
		[]serve.Update{up(1, geom.V(1, 2, 3), geom.V(4, 5, 6)), del(7)}},
	{"corners-ordered", `{"upserts":[{"id":1,"min":[4,2,9],"max":[1,5,6]}]}`, 0, 200,
		[]serve.Update{up(1, geom.V(1, 2, 6), geom.V(4, 5, 9))}},
	{"deletes-first", `{"deletes":[7,8],"upserts":[{"id":1}]}`, 0, 200,
		[]serve.Update{up(1, origin, origin), del(7), del(8)}},
	{"keys-folded", `{"UPSERTS":[{"ID":2,"Min":[1,1,1],"MAX":[2,2,2]}],"DeLeTeS":[3]}`, 0, 200,
		[]serve.Update{up(2, one, geom.V(2, 2, 2)), del(3)}},
	{"keys-long-s", `{"upſerts":[{"id":3}],"deleteſ":[4]}`, 0, 200,
		[]serve.Update{up(3, origin, origin), del(4)}},
	{"keys-escaped", `{"\u0075pserts":[{"\u0069d":5,"m\u0069n":[1,1,1]}],"up\u017Ferts":[{"id":6}],"\"deletes":[1]}`, 0, 200,
		[]serve.Update{up(6, one, origin)}},
	{"keys-surrogate", `{"ups\ud800erts":[{"id":1}],"😀":1}`, 0, 200, []serve.Update{}},
	{"keys-long", `{"upsertsupsertsupsertsupsertsupserts":[{"id":1}]}`, 0, 200, []serve.Update{}},
	{"unknown-skipped", `{"x":{"a":[1,{"b":null}],"c":"é\n\\\/"},"upserts":[{"id":1,"extra":[true,false]}],"y":-1.5e+3}`, 0, 200,
		[]serve.Update{up(1, origin, origin)}},
	{"unknown-bad-escape", `{"x":"\q"}`, 0, 400, nil},
	{"unknown-bad-hex", `{"x":"\u12g4"}`, 0, 400, nil},
	{"unknown-control", "{\"x\":\"a\tb\"}", 0, 400, nil},
	{"unknown-bad-literal", `{"x":nul}`, 0, 400, nil},
	{"unknown-invalid-utf8", "{\"x\":\"\xff\xfe\",\"\xc5\":1}", 0, 200, []serve.Update{}},
	{"depth-limit", nested(10000), 0, 200, []serve.Update{del(1)}},
	{"depth-over", nested(10001), 0, 400, nil},
	{"null-body", `null`, 0, 200, []serve.Update{}},
	{"null-then-bytes", `null garbage`, 0, 200, []serve.Update{}},
	{"null-lists", `{"upserts":[{"id":1}],"deletes":[2],"upserts":null,"deletes":null}`, 0, 200, []serve.Update{}},
	{"null-item", `{"upserts":[null]}`, 0, 200, []serve.Update{up(0, origin, origin)}},
	{"null-fields", `{"upserts":[{"id":null,"min":null,"max":[1,2,null]}]}`, 0, 200,
		[]serve.Update{up(0, origin, geom.V(1, 2, 0))}},
	{"corner-short", `{"upserts":[{"id":1,"min":[1],"max":[]}]}`, 0, 200,
		[]serve.Update{up(1, geom.V(1, 0, 0), origin)}},
	{"corner-long", `{"upserts":[{"id":1,"min":[1,2,3,1e999,"x",{"a":[]}],"max":[4,5,6,7]}]}`, 0, 200,
		[]serve.Update{up(1, geom.V(1, 2, 3), geom.V(4, 5, 6))}},
	{"corner-long-malformed", `{"upserts":[{"id":1,"min":[1,2,3,01]}]}`, 0, 400, nil},
	{"duplicate-id", `{"upserts":[{"id":1,"id":2}]}`, 0, 200, []serve.Update{up(2, origin, origin)}},
	{"duplicate-corner", `{"upserts":[{"min":[1,2,3],"min":[null]}]}`, 0, 200,
		[]serve.Update{up(0, geom.V(1, 0, 0), origin)}},
	{"repeated-upserts-merge", `{"upserts":[{"id":1,"min":[5,5,5],"max":[6,6,6]}],"upserts":[{"id":2}]}`, 0, 200,
		[]serve.Update{up(2, geom.V(5, 5, 5), geom.V(6, 6, 6))}},
	{"repeated-upserts-past-end", `{"upserts":[{"id":1},{"id":2},{"id":3}],"upserts":[{"id":9}],"upserts":[null,null,null]}`, 0, 200,
		[]serve.Update{up(9, origin, origin), up(2, origin, origin), up(3, origin, origin)}},
	{"repeated-upserts-forgotten", `{"upserts":[{"id":1},{"id":2}],"upserts":[],"upserts":[null,null]}`, 0, 200,
		[]serve.Update{up(0, origin, origin), up(0, origin, origin)}},
	{"repeated-deletes", `{"deletes":[1,2,3],"deletes":[null],"deletes":[null,null]}`, 0, 200,
		[]serve.Update{del(1), del(2)}},
	{"id-extremes", `{"deletes":[9223372036854775807,-9223372036854775808,-0]}`, 0, 200,
		[]serve.Update{del(math.MaxInt64), del(math.MinInt64), del(0)}},
	{"id-overflow", `{"deletes":[9223372036854775808]}`, 0, 400, nil},
	{"id-fraction", `{"upserts":[{"id":1.0}]}`, 0, 400, nil},
	{"id-exponent", `{"upserts":[{"id":1e2}]}`, 0, 400, nil},
	{"id-string", `{"upserts":[{"id":"1"}]}`, 0, 400, nil},
	{"delete-bool", `{"deletes":[true]}`, 0, 400, nil},
	{"coordinate-overflow", `{"upserts":[{"min":[1e309,0,0]}]}`, 0, 400, nil},
	{"coordinate-underflow", `{"upserts":[{"min":[1e-400,-0,5e-324],"max":[-0.0e-0,2E+2,1.5]}]}`, 0, 200,
		[]serve.Update{up(0, geom.V(0, math.Copysign(0, -1), 5e-324), geom.V(math.Copysign(0, -1), 200, 1.5))}},
	{"coordinate-string", `{"upserts":[{"min":["1",0,0]}]}`, 0, 400, nil},
	{"upserts-object", `{"upserts":{}}`, 0, 400, nil},
	{"upserts-string", `{"upserts":"x"}`, 0, 400, nil},
	{"item-array", `{"upserts":[[1]]}`, 0, 400, nil},
	{"corner-object", `{"upserts":[{"max":{}}]}`, 0, 400, nil},
	{"deletes-number", `{"deletes":5}`, 0, 400, nil},
	{"top-array", `[]`, 0, 400, nil},
	{"top-string", `"x"`, 0, 400, nil},
	{"top-number", `5`, 0, 400, nil},
	{"top-true", `true`, 0, 400, nil},
	{"number-leading-zero", `{"deletes":[01]}`, 0, 400, nil},
	{"number-minus", `{"deletes":[-]}`, 0, 400, nil},
	{"number-dot", `{"upserts":[{"min":[1.]}]}`, 0, 400, nil},
	{"number-bare-fraction", `{"upserts":[{"min":[.5]}]}`, 0, 400, nil},
	{"number-exponent", `{"upserts":[{"min":[1e+]}]}`, 0, 400, nil},
	{"number-plus", `{"upserts":[{"min":[+1]}]}`, 0, 400, nil},
	{"trailing-bytes", `{"upserts":[]} {"upserts":[{`, 0, 200, []serve.Update{}},
	{"trailing-comma", `{"upserts":[],}`, 0, 400, nil},
	{"array-trailing-comma", `{"deletes":[1,]}`, 0, 400, nil},
	{"missing-colon", `{"upserts" []}`, 0, 400, nil},
	{"missing-comma", `{"upserts":[] "deletes":[]}`, 0, 400, nil},
	{"unquoted-key", `{upserts:[]}`, 0, 400, nil},
	{"empty", ``, 0, 400, nil},
	{"blank", " \n\t\r ", 0, 400, nil},
	{"truncated", `{"upserts":[{"id":1}`, 0, 400, nil},
	{"truncated-number", `{"deletes":[1`, 0, 400, nil},
	{"truncated-top-literal", `nul`, 0, 400, nil},
	{"mismatch-then-syntax", `{"upserts":5,}`, 0, 400, nil},
	{"byte-order-mark", "\xef\xbb\xbf{}", 0, 400, nil},
	// The cap: a value complete within it is accepted whatever follows; one
	// that needs a byte past it is too large, even when a mismatch or a
	// top-level scalar's end is all that is left to see.
	{"cap-streamed-over", `{"upserts":[{"id":1,"min":[1,1,1],"max":[2,2,2]}],"deletes":[7]}`, 1, 413, nil},
	{"cap-after-value", `{"deletes":[1]}` + strings.Repeat(" ", 100), 100, 200, []serve.Update{del(1)}},
	{"cap-mismatch-then-over", `{"upserts":"x","pad":"` + strings.Repeat("a", 100) + `"}`, 50, 413, nil},
	{"cap-syntax-before", `{"deletes":[01],"pad":"` + strings.Repeat("a", 100) + `"}`, 50, 400, nil},
	{"cap-top-null", `null `, 1, 413, nil},
	{"cap-blank", strings.Repeat(" ", 200), 100, 413, nil},
}

func TestReadUpdateMatchesEncodingJSON(t *testing.T) {
	for _, tc := range updateCases {
		t.Run(tc.name, func(t *testing.T) {
			body := []byte(tc.body)
			status, batch := agree(t, body, int64(len(body)-tc.cut))
			if status != tc.status {
				t.Fatalf("status %d, want %d", status, tc.status)
			}
			if tc.batch == nil {
				return
			}
			if len(batch) != len(tc.batch) {
				t.Fatalf("batch %+v, want %+v", batch, tc.batch)
			}
			for i := range batch {
				if !sameUpdate(batch[i], tc.batch[i]) {
					t.Fatalf("update %d is %+v, want %+v", i, batch[i], tc.batch[i])
				}
			}
		})
	}
}

// TestReadUpdateAcrossWindows decodes bodies whose tokens straddle the
// read window: keys, strings, numbers and literals split at every offset
// near a refill.
func TestReadUpdateAcrossWindows(t *testing.T) {
	item := `{"id":123456789,"min":[-1.2345678901234567e-05,2,3],"max":[4.5,5,6],"x":"é\"","y":[true,false,null]}`
	for pad := 0; pad < len(item); pad++ {
		body := `{"junk":"` + strings.Repeat("a", httpapi.DecodeWindow-9-pad) + `","upserts":[` + item + "," + item + `],"deletes":[-42]}`
		agree(t, []byte(body), httpapi.MaxUpdateBody)
	}
}

// benchBody is a body shaped like the benchmark's bootstrap POST: n upserts
// with shortest-form full-precision coordinates, about 138 bytes an item.
func benchBody(n int) []byte {
	r := rand.New(rand.NewSource(1))
	coord := func(b []byte, f float64) []byte {
		n := len(b)
		b = strconv.AppendFloat(b, f, 'g', -1, 64)
		return append(b[:n], bytes.ReplaceAll(b[n:], []byte("+"), nil)...)
	}
	b := []byte(`{"upserts":[`)
	for i := 0; i < n; i++ {
		if i > 0 {
			b = append(b, ',')
		}
		lo := [3]float64{r.Float64() * 1000, r.Float64() * 1000, r.Float64() * 1000}
		b = append(b, `{"id":`...)
		b = strconv.AppendInt(b, int64(i), 10)
		for k, name := range []string{`,"min":[`, `],"max":[`} {
			b = append(b, name...)
			for j := range lo {
				if j > 0 {
					b = append(b, ',')
				}
				b = coord(b, lo[j]+float64(k)*r.Float64()*3)
			}
		}
		b = append(b, `]}`...)
	}
	return append(b, `]}`...)
}

// TestReadUpdateSpeedAndMemory decodes a 200 000-item bench-shaped body:
// at least twice as fast as encoding/json, and allocating no more than
// twice the final batch plus the read window — memory follows the items
// decoded, not the body.
func TestReadUpdateSpeedAndMemory(t *testing.T) {
	if raceEnabled || testing.Short() || testing.CoverMode() != "" {
		t.Skip("timing and allocation bounds need the plain build")
	}
	const n = 200000
	body := benchBody(n)
	limit := int64(len(body))
	best := func(f func()) time.Duration {
		d := time.Duration(math.MaxInt64)
		for i := 0; i < 3; i++ {
			start := time.Now()
			f()
			d = min(d, time.Since(start))
		}
		return d
	}
	var batch []serve.Update
	stream := best(func() {
		var status int
		status, batch, _ = decode(body, limit)
		if status != http.StatusOK || len(batch) != n {
			t.Fatalf("status %d, %d updates", status, len(batch))
		}
	})
	oracle := best(func() {
		if status, _ := reference(body, limit); status != http.StatusOK {
			t.Fatalf("encoding/json: status %d", status)
		}
	})
	perByte := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / float64(len(body)) }
	t.Logf("%d-byte body: stream %v (%.2f ns/byte), encoding/json %v (%.2f ns/byte), %.1fx",
		len(body), stream, perByte(stream), oracle, perByte(oracle), float64(oracle)/float64(stream))
	if oracle < 2*stream {
		t.Errorf("stream decode %v is not 2x faster than encoding/json's %v", stream, oracle)
	}

	// The least of three runs: the runtime and the test harness allocate
	// now and then on their own.
	alloc := uint64(math.MaxUint64)
	for i := 0; i < 3; i++ {
		r := httptest.NewRequest(http.MethodPost, "/v1/update", bytes.NewReader(body))
		w := httptest.NewRecorder()
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		batch, _ = httpapi.ReadUpdate(w, r, limit)
		runtime.ReadMemStats(&after)
		alloc = min(alloc, after.TotalAlloc-before.TotalAlloc)
	}
	final := uint64(cap(batch)) * uint64(unsafe.Sizeof(serve.Update{}))
	t.Logf("allocated %d bytes for a %d-byte batch (%d items) from a %d-byte body", alloc, final, len(batch), len(body))
	if bound := 2*final + httpapi.DecodeWindow; alloc > bound {
		t.Errorf("allocated %d bytes, over 2x the %d-byte batch plus the %d-byte window", alloc, final, httpapi.DecodeWindow)
	}
}

func BenchmarkReadUpdate(b *testing.B) {
	body := benchBody(20000)
	b.SetBytes(int64(len(body)))
	for _, side := range []struct {
		name string
		run  func() int
	}{
		{"stream", func() int { s, _, _ := decode(body, int64(len(body))); return s }},
		{"encoding-json", func() int { s, _ := reference(body, int64(len(body))); return s }},
	} {
		b.Run(side.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if side.run() != http.StatusOK {
					b.Fatal("refused")
				}
			}
		})
	}
}

// FuzzReadUpdate holds the decoder to encoding/json on arbitrary bodies and
// caps: cut is how many bytes short of the body the cap falls.
func FuzzReadUpdate(f *testing.F) {
	for _, tc := range updateCases {
		f.Add([]byte(tc.body), uint16(tc.cut))
	}
	f.Add(benchBody(3), uint16(0))
	f.Fuzz(func(t *testing.T, body []byte, cut uint16) {
		agree(t, body, max(int64(len(body))-int64(cut), 0))
	})
}

// TestGenerateUpdateCorpus rewrites the committed FuzzReadUpdate seeds from
// updateCases and a bench-shaped body. It only runs when
// SPATIALSIM_GEN_CORPUS=1:
//
//	SPATIALSIM_GEN_CORPUS=1 go test ./internal/httpapi -run GenerateUpdateCorpus
func TestGenerateUpdateCorpus(t *testing.T) {
	if os.Getenv("SPATIALSIM_GEN_CORPUS") != "1" {
		t.Skip("set SPATIALSIM_GEN_CORPUS=1 to regenerate the committed fuzz corpus")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzReadUpdate")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	write := func(name string, body []byte, cut int) {
		content := "go test fuzz v1\n[]byte(" + strconv.Quote(string(body)) + ")\nuint16(" + strconv.Itoa(cut) + ")\n"
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("seed-bench-shaped", benchBody(3), 0)
	for _, tc := range updateCases {
		write("seed-"+tc.name, []byte(tc.body), tc.cut)
	}
}

// TestAtofMatchesParseFloat checks the float fast path against
// strconv.ParseFloat, bit for bit, on the shortest forms of random doubles
// and on random mantissas, decimal points and exponents around its limits.
func TestAtofMatchesParseFloat(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	check := func(s []byte) {
		want, err := strconv.ParseFloat(string(s), 64)
		got, ok := httpapi.Atof(s)
		if ok && (err != nil || math.Float64bits(got) != math.Float64bits(want)) {
			t.Fatalf("atof(%s) = %v (%#x), ParseFloat %v (%#x, %v)", s, got, math.Float64bits(got), want, math.Float64bits(want), err)
		}
	}
	for _, s := range []string{"0", "-0", "0.0", "-0e5", "1", "9007199254740993", "9999999999999999999",
		"1e19", "1e-19", "12345678901234567e2", "0.0000000000000000001", "4.9406564584124654e-324",
		"1.7976931348623157e308", "123.456e-20", "18446744073709551615", "5e-1", "0.1", "2.5", "-3.5e+0"} {
		check([]byte(s))
	}
	for i := 0; i < 300000; i++ {
		for _, f := range []float64{r.Float64() * 1000, math.Float64frombits(r.Uint64())} {
			if !math.IsNaN(f) && !math.IsInf(f, 0) {
				check(strconv.AppendFloat(nil, f, 'g', -1, 64))
			}
		}
		digits := strconv.AppendUint(nil, r.Uint64()>>uint(r.Intn(64)), 10)
		var s []byte
		if r.Intn(2) == 0 {
			s = append(s, '-')
		}
		if p := r.Intn(len(digits) + 1); p < len(digits) && p > 0 {
			s = append(append(append(s, digits[:p]...), '.'), digits[p:]...)
		} else {
			s = append(s, digits...)
		}
		if r.Intn(2) == 0 {
			s = strconv.AppendInt(append(s, 'e'), int64(r.Intn(50)-25), 10)
		}
		check(s)
	}
}
