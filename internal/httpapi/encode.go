package httpapi

import (
	"encoding/json"
	"math"
	"net/http"
	"strconv"
	"sync"

	"spatialsim/internal/index"
	"spatialsim/internal/join"
)

// contentTypeJSON is every JSON reply's Content-Type header value, shared
// because net/http only reads it.
var contentTypeJSON = []string{"application/json"}

// maxPooledReply caps the buffers kept for reuse: a range with no limit can
// encode megabytes once, and must not pin them for the life of the process.
const maxPooledReply = 64 << 10

var replyPool = sync.Pool{New: func() any { return &Reply{buf: make([]byte, 0, 8<<10)} }}

// Reply is a read reply under construction: the envelope appended to a
// pooled buffer field by field, in wire order. The bytes are exactly what
// json.NewEncoder(w).Encode of the equivalent struct (omitempty on the
// optional fields) writes. Send it exactly once; it is not usable after.
type Reply struct {
	buf []byte
	err error
}

// newObject starts a reply at {"epoch":E.
func newObject(epoch uint64) *Reply {
	b := replyPool.Get().(*Reply)
	b.buf = append(b.buf, `{"epoch":`...)
	b.buf = strconv.AppendUint(b.buf, epoch, 10)
	return b
}

// NewReply starts {"epoch":E,"count":N,"items":[...]} with every item
// appended straight from the index — no intermediate copy, no reflection.
// The caller appends its remaining fields in wire order, then Sends.
func NewReply(epoch uint64, items []index.Item) *Reply {
	b := newObject(epoch)
	buf := append(b.buf, `,"count":`...)
	buf = strconv.AppendInt(buf, int64(len(items)), 10)
	buf = append(buf, `,"items":[`...)
	for i := range items {
		it := &items[i]
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, `{"id":`...)
		buf = strconv.AppendInt(buf, it.ID, 10)
		buf = append(buf, `,"min":[`...)
		buf = b.appendVec(buf, it.Box.Min.X, it.Box.Min.Y, it.Box.Min.Z)
		buf = append(buf, `],"max":[`...)
		buf = b.appendVec(buf, it.Box.Max.X, it.Box.Max.Y, it.Box.Max.Z)
		buf = append(buf, "]}"...)
	}
	b.buf = append(buf, ']')
	return b
}

// appendVec appends x,y,z, recording the first non-finite coordinate as
// the error encoding/json reports for it.
func (b *Reply) appendVec(buf []byte, x, y, z float64) []byte {
	for i, f := range [3]float64{x, y, z} {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			if b.err == nil {
				b.err = &json.UnsupportedValueError{Str: strconv.FormatFloat(f, 'g', -1, 64)}
			}
			f = 0
		}
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = AppendFloat(buf, f)
	}
	return buf
}

// key appends ,"key": — keys are this package's callers' constants and
// need no escaping.
func (b *Reply) key(key string) {
	b.buf = append(b.buf, ',', '"')
	b.buf = append(b.buf, key...)
	b.buf = append(b.buf, '"', ':')
}

// Int appends ,"key":v.
func (b *Reply) Int(key string, v int) {
	b.key(key)
	b.buf = strconv.AppendInt(b.buf, int64(v), 10)
}

// True appends ,"key":true (an omitempty bool that is set).
func (b *Reply) True(key string) {
	b.key(key)
	b.buf = append(b.buf, "true"...)
}

// newJoinReply starts a join reply: {"epoch":E,"algorithm":A,"eps":F,
// "items":N,"count":C,"truncated":T,"pairs":[[a,b],...] with at most limit
// pairs; eps is finite (Params.Join refuses anything else). The count is
// the exact JoinCount, and truncated says it exceeds the limit.
func newJoinReply(res Result, eps float64, limit int) *Reply {
	b := newObject(res.Epoch)
	b.JSON("algorithm", join.Algorithm)
	b.key("eps")
	b.buf = AppendFloat(b.buf, eps)
	b.Int("items", res.JoinItems)
	b.Int("count", res.JoinCount)
	b.key("truncated")
	b.buf = strconv.AppendBool(b.buf, res.JoinCount > limit)
	b.key("pairs")
	buf := append(b.buf, '[')
	for i, p := range res.Pairs[:min(len(res.Pairs), limit)] {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, '[')
		buf = strconv.AppendInt(buf, p.A, 10)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, p.B, 10)
		buf = append(buf, ']')
	}
	b.buf = append(buf, ']')
	return b
}

// JSON appends ,"key": and v through encoding/json — the rare fields (plan,
// shard or node errors, trace) whose cost is not on the hot path.
func (b *Reply) JSON(key string, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		if b.err == nil {
			b.err = err
		}
		return
	}
	b.key(key)
	b.buf = append(b.buf, data...)
}

// Send closes the envelope and answers 200 with it — or, when a value did
// not encode, 500 internal with encoding/json's error, as before — and
// returns the buffer to the pool unless it grew past maxPooledReply.
func (b *Reply) Send(w http.ResponseWriter) {
	if b.err != nil {
		Error(w, http.StatusInternalServerError, "internal", b.err.Error())
	} else {
		b.buf = append(b.buf, '}', '\n')
		write(w, http.StatusOK, b.buf)
	}
	if cap(b.buf) <= maxPooledReply {
		b.buf, b.err = b.buf[:0], nil
		replyPool.Put(b)
	}
}

// AppendFloat appends a finite f exactly as encoding/json encodes a
// float64: the shortest 'f' form, switching to 'e' below 1e-6 or from 1e21
// up, with a two-digit negative exponent shortened (e-07 → e-7).
func AppendFloat(b []byte, f float64) []byte {
	abs := math.Abs(f)
	fmt := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		fmt = 'e'
	}
	b = strconv.AppendFloat(b, f, fmt, -1, 64)
	if fmt == 'e' {
		n := len(b)
		if n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// ErrorEnvelope is the uniform error shape of every endpoint:
// {"error": {"code": "...", "message": "..."}}.
type ErrorEnvelope struct {
	Error ErrorBody `json:"error"`
}

// ErrorBody is the envelope's payload.
type ErrorBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// Error answers status with the error envelope.
func Error(w http.ResponseWriter, status int, code, msg string) {
	body, _ := json.Marshal(ErrorEnvelope{Error: ErrorBody{Code: code, Message: msg}}) // two strings always encode
	write(w, status, append(body, '\n'))
}

// BadRequest answers 400 bad_request with err's message.
func BadRequest(w http.ResponseWriter, err error) {
	Error(w, http.StatusBadRequest, "bad_request", err.Error())
}

// WriteJSON answers 200 with v exactly as json.NewEncoder(w).Encode writes
// it, or 500 internal when v does not encode.
func WriteJSON(w http.ResponseWriter, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		Error(w, http.StatusInternalServerError, "internal", err.Error())
		return
	}
	write(w, http.StatusOK, append(body, '\n'))
}

// write sends one whole JSON body with its Content-Length, in one Write.
func write(w http.ResponseWriter, status int, body []byte) {
	h := w.Header()
	h["Content-Type"] = contentTypeJSON
	h["Content-Length"] = []string{strconv.Itoa(len(body))}
	w.WriteHeader(status)
	_, _ = w.Write(body) // a failed write is a client that went away; nothing is left to tell it
}
