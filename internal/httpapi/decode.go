package httpapi

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"unicode/utf16"
	"unicode/utf8"

	"spatialsim/internal/geom"
	"spatialsim/internal/serve"
)

// An update body is decoded in one reflection-free pass through a fixed
// window: upserts are appended straight into the batch with their corners
// as sent (ordered once, at the end), so memory follows the items decoded,
// not the body. The pass accepts and refuses what
// json.NewDecoder(body).Decode into
//
//	{"upserts":[{"id":int64,"min":[3]float64,"max":[3]float64}],"deletes":[int64]}
//
// does and decodes the same batch (FuzzReadUpdate holds it to that),
// including that decoder's less obvious rules:
//   - a key matches a field exactly, else case-folded as bytes.EqualFold
//     folds it ("UPSERTS", "upſerts"), after its escapes are decoded;
//   - null leaves an id, a coordinate, a corner, an item or the whole body
//     as it was, and empties upserts or deletes;
//   - a repeated upserts or deletes decodes into the elements the earlier
//     one left, even past its own end, and only its own length counts;
//     [] and null forget them;
//   - a corner shorter than three zero-fills, and values past the third are
//     validated and dropped;
//   - ids and deletes are integers that fit int64, written without a
//     fraction or an exponent, and every coordinate must fit a float64;
//   - a value of the wrong type refuses the body only once the whole
//     top-level value is read, so a body that also overruns the cap is
//     refused as too large;
//   - objects and arrays nest at most 10 000 deep, and the bytes after the
//     top-level value are not read.

const (
	// decodeWindow is the read window an update body streams through.
	decodeWindow = 64 << 10
	// maxDepth is encoding/json's nesting limit.
	maxDepth = 10000
	// minGrow is the first capacity, in elements, of the upserts and
	// deletes.
	minGrow = 64
)

// windows recycles decode windows across requests.
var windows = sync.Pool{New: func() any { return new([decodeWindow]byte) }}

var (
	requestFields = []string{"upserts", "deletes"}
	itemFields    = []string{"id", "min", "max"}
)

// decodeUpdate reads one update body from r into a batch, upserts first. It
// also reports how many of the batch are upserts and how many bytes of the
// body it read.
func decodeUpdate(r io.Reader) (batch []serve.Update, upserts int, read int64, err error) {
	win := windows.Get().(*[decodeWindow]byte)
	defer windows.Put(win)
	d := updateDecoder{r: r, buf: win[:]}
	if err := d.decode(); err != nil {
		return nil, 0, d.read, err
	}
	batch = d.ups[:d.nUps]
	for i := range batch {
		b := &batch[i].Box
		*b = geom.NewAABB(b.Min, b.Max)
	}
	for _, id := range d.dels[:d.nDels] {
		batch = extend(batch)
		batch[len(batch)-1] = serve.Update{ID: id, Delete: true}
	}
	return batch, d.nUps, d.read, nil
}

// updateDecoder is one body's decoding state.
type updateDecoder struct {
	r io.Reader
	// buf is the window; buf[pos:end] is read but not yet decoded.
	buf      []byte
	pos, end int
	read     int64
	// rerr is the reader's error, returned once the bytes read with it are
	// decoded, as encoding/json's decoder returns it.
	rerr  error
	depth int
	// mismatch is the first value that does not fit its field. Decoding
	// goes on to the end of the top-level value, as encoding/json's does.
	mismatch error
	// ups[:nUps] are the upserts; ups[nUps:] are elements an earlier
	// upserts left, which a repeated one decodes into. dels likewise.
	ups   []serve.Update
	nUps  int
	dels  []int64
	nDels int
	// key[:keyLen] is the last object key, unescaped; keyOK is false when
	// it was too long for key or held a surrogate escape, which no field
	// name matches either way.
	key    [32]byte
	keyLen int
	keyOK  bool
}

// extend appends one zero element, doubling the capacity when it is full,
// so the bytes ever allocated for s stay under twice its final capacity.
func extend[T any](s []T) []T {
	if len(s) == cap(s) {
		t := make([]T, len(s), max(2*cap(s), minGrow))
		copy(t, s)
		s = t
	}
	var zero T
	return append(s, zero)
}

// decode decodes the top-level value.
func (d *updateDecoder) decode() error {
	c, err := d.space()
	if err != nil {
		return err // io.EOF: the body is empty
	}
	opened, err := d.enter(c, '{', "the update request")
	if opened {
		err = d.request()
	}
	if err == nil && c != '{' && c != '[' {
		err = d.settle()
	}
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	if err == nil {
		err = d.mismatch
	}
	return err
}

// settle reads past a top-level scalar: encoding/json's decoder calls one
// complete only at the next byte or at the end of the body, so a read
// error in between still fails it.
func (d *updateDecoder) settle() error {
	if d.pos == d.end {
		if err := d.fill(); err != nil && err != io.EOF {
			return err
		}
	}
	return nil
}

// request decodes the members of the open top-level object.
func (d *updateDecoder) request() error {
	for first := true; ; first = false {
		field, c, ok, err := d.member(first, requestFields)
		if err != nil || !ok {
			return err
		}
		switch field {
		case 0:
			err = list(d, &d.ups, &d.nUps, c, "upserts", d.item)
		case 1:
			err = list(d, &d.dels, &d.nDels, c, "deletes", d.delete)
		default:
			err = d.skip(c)
		}
		if err != nil {
			return err
		}
	}
}

// list decodes the upserts or deletes array starting with c into s: its
// element i decodes into (*s)[i], whatever an earlier array left there or
// a zero element, and *n becomes its length. null and [] forget every
// element.
func list[T any](d *updateDecoder, s *[]T, n *int, c byte, what string, elem func(*T, byte) error) error {
	if c == 'n' {
		*s, *n = (*s)[:0], 0
	}
	if opened, err := d.enter(c, '[', what); !opened || err != nil {
		return err
	}
	i := 0
	for ; ; i++ {
		c, ok, err := d.element(i == 0)
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		if i == len(*s) {
			*s = extend(*s)
		}
		if err := elem(&(*s)[i], c); err != nil {
			return err
		}
	}
	if i == 0 {
		*s = (*s)[:0]
	}
	*n = i
	return nil
}

// item decodes one upsert into u, corners as sent.
func (d *updateDecoder) item(u *serve.Update, c byte) error {
	if opened, err := d.enter(c, '{', "an upsert"); !opened || err != nil {
		return err
	}
	for first := true; ; first = false {
		field, c, ok, err := d.member(first, itemFields)
		if err != nil || !ok {
			return err
		}
		switch field {
		case 0:
			err = d.integer(&u.ID, c, "id")
		case 1:
			err = d.corner(&u.Box.Min, c, "min")
		case 2:
			err = d.corner(&u.Box.Max, c, "max")
		default:
			err = d.skip(c)
		}
		if err != nil {
			return err
		}
	}
}

// delete decodes one delete into v.
func (d *updateDecoder) delete(v *int64, c byte) error { return d.integer(v, c, "a delete") }

// corner decodes an [x, y, z] triple into v.
func (d *updateDecoder) corner(v *geom.Vec3, c byte, what string) error {
	if opened, err := d.enter(c, '[', what); !opened || err != nil {
		return err
	}
	xyz := [3]*float64{&v.X, &v.Y, &v.Z}
	i := 0
	for ; ; i++ {
		c, ok, err := d.element(i == 0)
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		if i < len(xyz) {
			err = d.float(xyz[i], c, what)
		} else {
			err = d.skip(c)
		}
		if err != nil {
			return err
		}
	}
	for ; i < len(xyz); i++ {
		*xyz[i] = 0
	}
	return nil
}

// enter opens the object or array (want) that the value starting with c
// must be. null leaves the field as it was, and any other value is a
// mismatch, skipped; opened is false for both.
func (d *updateDecoder) enter(c, want byte, what string) (opened bool, err error) {
	switch c {
	case want:
		return true, d.open()
	case 'n':
		return false, d.literal("null")
	}
	d.mismatched(c, what)
	return false, d.skip(c)
}

// integer decodes an int64 into v.
func (d *updateDecoder) integer(v *int64, c byte, what string) error {
	if c != '-' && (c < '0' || c > '9') {
		return d.scalar(c, what)
	}
	s, err := d.number()
	if err != nil {
		return err
	}
	n, err := strconv.ParseInt(string(s), 10, 64)
	if err != nil {
		d.refuse("%s %s is not an int64", what, s)
		return nil
	}
	*v = n
	return nil
}

// float decodes a float64 into v.
func (d *updateDecoder) float(v *float64, c byte, what string) error {
	if c != '-' && (c < '0' || c > '9') {
		return d.scalar(c, what)
	}
	s, err := d.number()
	if err != nil {
		return err
	}
	f, ok := atof(s)
	if !ok {
		if f, err = strconv.ParseFloat(string(s), 64); err != nil {
			d.refuse("%s %s is not a float64", what, s)
			return nil
		}
	}
	*v = f
	return nil
}

// scalar takes a value that is not a number where a number belongs: null
// leaves the number as it was, anything else is a mismatch.
func (d *updateDecoder) scalar(c byte, what string) error {
	if c == 'n' {
		return d.literal("null")
	}
	d.mismatched(c, what)
	return d.skip(c)
}

// mismatched records that the value starting with c does not fit what.
func (d *updateDecoder) mismatched(c byte, what string) {
	kind := "a number"
	switch c {
	case '{':
		kind = "an object"
	case '[':
		kind = "an array"
	case '"':
		kind = "a string"
	case 't', 'f':
		kind = "a boolean"
	}
	d.refuse("cannot decode %s into %s", kind, what)
}

// refuse records the body's first mismatch.
func (d *updateDecoder) refuse(format string, args ...any) {
	if d.mismatch == nil {
		d.mismatch = fmt.Errorf(format+" (offset %d)", append(args, d.offset())...)
	}
}

// skip validates and drops one value whose first byte is c.
func (d *updateDecoder) skip(c byte) error {
	switch c {
	case '{':
		if err := d.open(); err != nil {
			return err
		}
		for first := true; ; first = false {
			_, c, ok, err := d.member(first, nil)
			if err != nil || !ok {
				return err
			}
			if err := d.skip(c); err != nil {
				return err
			}
		}
	case '[':
		if err := d.open(); err != nil {
			return err
		}
		for first := true; ; first = false {
			c, ok, err := d.element(first)
			if err != nil || !ok {
				return err
			}
			if err := d.skip(c); err != nil {
				return err
			}
		}
	case '"':
		d.pos++
		return d.str(false)
	case 't':
		return d.literal("true")
	case 'f':
		return d.literal("false")
	case 'n':
		return d.literal("null")
	}
	if c == '-' || '0' <= c && c <= '9' {
		_, err := d.number()
		return err
	}
	return d.syntax(c, "looking for beginning of value")
}

// open consumes the '{' or '[' at the window.
func (d *updateDecoder) open() error {
	if d.depth++; d.depth > maxDepth {
		return d.syntax(d.buf[d.pos], "exceeding the maximum nesting depth")
	}
	d.pos++
	return nil
}

// element reads up to the next element of an open array and returns its
// first byte, or ok=false once the closing ']' is consumed.
func (d *updateDecoder) element(first bool) (c byte, ok bool, err error) {
	if c, err = d.space(); err != nil {
		return 0, false, err
	}
	switch {
	case c == ']':
		d.pos++
		d.depth--
		return 0, false, nil
	case first:
		return c, true, nil
	case c != ',':
		return 0, false, d.syntax(c, "after array element")
	}
	d.pos++
	c, err = d.space()
	return c, err == nil, err
}

// member reads up to the next member of an open object: the index of its
// key among names (-1 for none, and always with nil names) and the first
// byte of its value, or ok=false once the closing '}' is consumed.
func (d *updateDecoder) member(first bool, names []string) (field int, c byte, ok bool, err error) {
	if c, err = d.space(); err != nil {
		return -1, 0, false, err
	}
	if c == '}' {
		d.pos++
		d.depth--
		return -1, 0, false, nil
	}
	if !first {
		if c != ',' {
			return -1, 0, false, d.syntax(c, "after object key:value pair")
		}
		d.pos++
		if c, err = d.space(); err != nil {
			return -1, 0, false, err
		}
	}
	if c != '"' {
		return -1, 0, false, d.syntax(c, "looking for beginning of object key string")
	}
	d.pos++
	if err = d.str(names != nil); err != nil {
		return -1, 0, false, err
	}
	field = d.field(names)
	if c, err = d.space(); err != nil {
		return -1, 0, false, err
	}
	if c != ':' {
		return -1, 0, false, d.syntax(c, "after object key")
	}
	d.pos++
	c, err = d.space()
	return field, c, err == nil, err
}

// field matches the last key against names as encoding/json matches a key
// against struct fields: exactly, else case-folded.
func (d *updateDecoder) field(names []string) int {
	if !d.keyOK {
		return -1
	}
	key := d.key[:d.keyLen]
	for i, name := range names {
		if string(key) == name {
			return i
		}
	}
	for i, name := range names {
		if strings.EqualFold(string(key), name) {
			return i
		}
	}
	return -1
}

// str consumes the rest of a string whose opening quote is consumed,
// refusing what encoding/json's scanner refuses. With keep it unescapes the
// string into key.
func (d *updateDecoder) str(keep bool) error {
	d.keyLen, d.keyOK = 0, keep
	for {
		start := d.pos
		for d.pos < d.end {
			if c := d.buf[d.pos]; c == '"' || c == '\\' || c < ' ' {
				break
			}
			d.pos++
		}
		d.keep(d.buf[start:d.pos])
		if d.pos == d.end {
			if err := d.fill(); err != nil {
				return err
			}
			continue
		}
		c := d.buf[d.pos]
		d.pos++
		if c == '"' {
			return nil
		}
		if c < ' ' {
			return d.syntax(c, "in string literal")
		}
		if err := d.escape(); err != nil {
			return err
		}
	}
}

// escape consumes the escape sequence after a backslash.
func (d *updateDecoder) escape() error {
	c, err := d.next()
	if err != nil {
		return err
	}
	switch c {
	case '"', '\\', '/':
	case 'b':
		c = '\b'
	case 'f':
		c = '\f'
	case 'n':
		c = '\n'
	case 'r':
		c = '\r'
	case 't':
		c = '\t'
	case 'u':
		var r rune
		for i := 0; i < 4; i++ {
			h, err := d.next()
			if err != nil {
				return err
			}
			switch {
			case '0' <= h && h <= '9':
				h -= '0'
			case 'a' <= h && h <= 'f':
				h -= 'a' - 10
			case 'A' <= h && h <= 'F':
				h -= 'A' - 10
			default:
				return d.syntax(h, "in \\u hexadecimal character escape")
			}
			r = r<<4 | rune(h)
		}
		if utf16.IsSurrogate(r) {
			d.keyOK = false
		} else {
			var b [utf8.UTFMax]byte
			d.keep(b[:utf8.EncodeRune(b[:], r)])
		}
		return nil
	default:
		return d.syntax(c, "in string escape code")
	}
	d.keep([]byte{c})
	return nil
}

// keep appends b to the key being read.
func (d *updateDecoder) keep(b []byte) {
	if !d.keyOK {
		return
	}
	if d.keyLen+len(b) > len(d.key) {
		d.keyOK = false
		return
	}
	d.keyLen += copy(d.key[d.keyLen:], b)
}

// number consumes a number and returns its text, valid until the next
// read. It ends where encoding/json's scanner ends one: at the first byte
// that cannot extend it, which it needs to see, or at the end of the body.
func (d *updateDecoder) number() ([]byte, error) {
	for {
		n, bad := scanNumber(d.buf[d.pos:d.end])
		if bad {
			d.pos += n
			return nil, d.syntax(d.buf[d.pos], "in numeric literal")
		}
		if n >= 0 {
			d.pos += n
			return d.buf[d.pos-n : d.pos], nil
		}
		if err := d.fill(); err != nil {
			// Every number that is complete ends in a digit.
			if s := d.buf[d.pos:d.end]; err == io.EOF && isDigit(s[len(s)-1]) {
				d.pos = d.end
				return s, nil
			}
			return nil, err
		}
	}
}

// scanNumber scans the number b starts with. It returns the number's length
// when a byte that cannot extend it follows in b; -1 when b ends first; and
// bad with the offset of the byte that makes it malformed.
func scanNumber(b []byte) (n int, bad bool) {
	i := 0
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i == len(b):
		return -1, false
	case b[i] == '0':
		i++
	case isDigit(b[i]):
		i = digits(b, i+1)
	default:
		return i, true
	}
	if i < len(b) && b[i] == '.' {
		start := i + 1
		if i = digits(b, start); i == start && i < len(b) {
			return i, true
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		start := i
		if i = digits(b, start); i == start && i < len(b) {
			return i, true
		}
	}
	if i == len(b) {
		return -1, false
	}
	return i, false
}

// digits is the index of the first byte from b[i] on that is not a digit.
func digits(b []byte, i int) int {
	for i < len(b) && isDigit(b[i]) {
		i++
	}
	return i
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// literal consumes word (true, false or null).
func (d *updateDecoder) literal(word string) error {
	for i := 0; i < len(word); i++ {
		c, err := d.next()
		if err != nil {
			return err
		}
		if c != word[i] {
			return d.syntax(c, "in literal "+word)
		}
	}
	return nil
}

// next consumes one byte.
func (d *updateDecoder) next() (byte, error) {
	if d.pos == d.end {
		if err := d.fill(); err != nil {
			return 0, err
		}
	}
	d.pos++
	return d.buf[d.pos-1], nil
}

// space skips whitespace and returns the next byte, not consumed.
func (d *updateDecoder) space() (byte, error) {
	for {
		for ; d.pos < d.end; d.pos++ {
			switch c := d.buf[d.pos]; c {
			case ' ', '\t', '\n', '\r':
			default:
				return c, nil
			}
		}
		if err := d.fill(); err != nil {
			return 0, err
		}
	}
}

// fill moves the unread bytes to the front of the window and reads more of
// the body behind them. Only a number can be left unread, and only one
// longer than the window makes it grow.
func (d *updateDecoder) fill() error {
	if d.rerr != nil {
		return d.rerr
	}
	n := copy(d.buf, d.buf[d.pos:d.end])
	if n == len(d.buf) {
		d.buf = append(d.buf, make([]byte, len(d.buf))...)
	}
	d.pos, d.end = 0, n
	for {
		m, err := d.r.Read(d.buf[d.end:])
		d.end += m
		d.read += int64(m)
		d.rerr = err
		if m > 0 {
			return nil
		}
		if err != nil {
			return err
		}
	}
}

// offset is the body offset of the byte at the window.
func (d *updateDecoder) offset() int64 { return d.read - int64(d.end-d.pos) }

// syntax reports the malformed byte c, read at the window (or just
// before it).
func (d *updateDecoder) syntax(c byte, context string) error {
	return fmt.Errorf("invalid character %q %s (offset %d)", c, context, d.offset())
}
