package spec

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"unicode/utf8"
)

// decodeSpec reads one JSON document straight into a Spec, in one pass
// over its bytes, and rejects anything but whitespace after it.
//
// It accepts exactly what encoding/json accepts when it decodes into a
// Spec with DisallowUnknownFields — keys match field names exactly or
// case-insensitively, null leaves a field at its zero value (a nil
// slice), [] is an empty non-nil slice, args are unsigned and scale
// signed 64-bit integer literals, and strings are unescaped with
// invalid UTF-8 and unpaired surrogates read as U+FFFD — with two
// exceptions: trailing data, and a key that names a field the object
// already set. encoding/json lets the last copy of a field win, so
// `"apps": [...], "apps": [...]` would silently drop every app the first
// list declared, and applying that spec removes them.
//
// Errors name the JSON path of the value at fault, for example
// `apps[3].segments[0].scale: want integer, got number 1.5`; syntax
// errors and trailing data carry their byte offset too.
func decodeSpec(data []byte) (*Spec, error) {
	d := &decoder{src: string(data)}
	s := &Spec{}
	if err := d.spec(s); err != nil {
		return nil, err
	}
	d.ws()
	if d.pos < len(d.src) {
		return nil, d.syntax("trailing data after the document")
	}
	return s, nil
}

// decoder is a cursor over one document. Keys are matched in place;
// every string value is copied out of src, because a spec's strings
// outlive it (in app URIs, program names, audit records) and a
// substring would pin the whole document.
type decoder struct {
	src string
	pos int
	// path leads to the value being decoded: a field name, or an index
	// into an array, per step.
	path []pathElem
}

type pathElem struct {
	field string
	index int
}

func (d *decoder) pop() { d.path = d.path[:len(d.path)-1] }

func (d *decoder) pathString() string {
	var b strings.Builder
	for _, e := range d.path {
		if e.field == "" {
			fmt.Fprintf(&b, "[%d]", e.index)
			continue
		}
		if b.Len() > 0 {
			b.WriteByte('.')
		}
		b.WriteString(e.field)
	}
	return b.String()
}

// fail reports msg at the current path.
func (d *decoder) fail(format string, args ...any) error {
	msg := fmt.Sprintf(format, args...)
	if p := d.pathString(); p != "" {
		return fmt.Errorf("%s: %s", p, msg)
	}
	return fmt.Errorf("%s", msg)
}

// syntax reports a malformed document at the current offset.
func (d *decoder) syntax(what string) error {
	if d.pos < len(d.src) {
		return d.fail("offset %d: %s (at %q)", d.pos, what, d.src[d.pos])
	}
	return d.fail("offset %d: %s", d.pos, what)
}

func (d *decoder) ws() {
	for d.pos < len(d.src) {
		switch d.src[d.pos] {
		case ' ', '\t', '\n', '\r':
			d.pos++
		default:
			return
		}
	}
}

// peek skips whitespace and returns the next byte, 0 at the end.
func (d *decoder) peek() byte {
	d.ws()
	if d.pos < len(d.src) {
		return d.src[d.pos]
	}
	return 0
}

// null consumes a null literal if one comes next.
func (d *decoder) null() (bool, error) {
	if d.peek() != 'n' {
		return false, nil
	}
	return true, d.literal("null")
}

func (d *decoder) literal(word string) error {
	if !strings.HasPrefix(d.src[d.pos:], word) {
		return d.syntax("invalid literal")
	}
	d.pos += len(word)
	return nil
}

// mismatch reports a well-formed value of the wrong kind, or a syntax
// error where no value starts.
func (d *decoder) mismatch(want string) error {
	var got string
	switch d.peek() {
	case '{':
		got = "object"
	case '[':
		got = "array"
	case '"':
		got = "string"
	case 't', 'f':
		got = "bool"
	case '-', '0', '1', '2', '3', '4', '5', '6', '7', '8', '9':
		got = "number"
	default:
		return d.syntax("looking for the beginning of a value")
	}
	return d.fail("want %s, got %s", want, got)
}

// open consumes the opening bracket of an object or array. It reports
// null for a null literal, which leaves the field at its zero value.
func (d *decoder) open(bracket byte, want string) (null bool, err error) {
	if null, err := d.null(); null || err != nil {
		return null, err
	}
	if d.peek() != bracket {
		return false, d.mismatch(want)
	}
	d.pos++
	return false, nil
}

// more advances past the separator before element n of an open array
// or object and reports whether an element follows; at the closing
// bracket it consumes it and reports false.
func (d *decoder) more(close byte, n int) (bool, error) {
	switch c := d.peek(); {
	case c == close:
		d.pos++
		return false, nil
	case n == 0:
		return true, nil
	case c == ',':
		d.pos++
		return true, nil
	default:
		return false, d.syntax("want ',' or '" + string(close) + "'")
	}
}

// member reads the key of member n of an open object, which holds a
// struct whose fields are named by fields, and its colon, and pushes
// the field onto the path; the caller decodes the value and pops. It
// reports false at the closing brace. Keys match exactly or, failing
// that, case-insensitively, as encoding/json matches them; an unknown
// key, or one naming a field the object already set, is an error.
func (d *decoder) member(fields []string, seen *uint, n int) (int, bool, error) {
	if ok, err := d.more('}', n); !ok || err != nil {
		return 0, false, err
	}
	if d.peek() != '"' {
		return 0, false, d.syntax("looking for the beginning of an object key")
	}
	k, err := d.quoted()
	if err != nil {
		return 0, false, err
	}
	if d.peek() != ':' {
		return 0, false, d.syntax("want ':' after an object key")
	}
	d.pos++
	i := slices.Index(fields, k)
	if i < 0 {
		i = slices.IndexFunc(fields, func(f string) bool { return strings.EqualFold(k, f) })
	}
	if i < 0 {
		return 0, false, d.fail("unknown field %q", k)
	}
	if *seen&(1<<i) != 0 {
		return 0, false, d.fail("duplicate field %q", k)
	}
	*seen |= 1 << i
	d.path = append(d.path, pathElem{field: fields[i]})
	return i, true, nil
}

// elem advances to element n of an open array and pushes its index
// onto the path; the caller decodes it and pops. It reports false at
// the closing bracket.
func (d *decoder) elem(n int) (bool, error) {
	if ok, err := d.more(']', n); !ok || err != nil {
		return false, err
	}
	d.path = append(d.path, pathElem{index: n})
	return true, nil
}

var (
	specFields    = []string{"version", "tenants", "apps"}
	tenantFields  = []string{"name"}
	appFields     = []string{"uri", "tenant", "path", "segments"}
	segmentFields = []string{"name", "app", "args", "scale"}
)

// object decodes an object, or null, which leaves its struct at the
// zero value, into a struct whose fields are named by fields: member
// decodes the value of field f.
func (d *decoder) object(fields []string, member func(f int) error) error {
	if null, err := d.open('{', "object"); null || err != nil {
		return err
	}
	var seen uint
	for n := 0; ; n++ {
		f, ok, err := d.member(fields, &seen, n)
		if !ok || err != nil {
			return err
		}
		if err := member(f); err != nil {
			return err
		}
		d.pop()
	}
}

// list decodes an array into a slice, elem decoding each element in
// place. [] gives an empty slice that is not nil, and null a nil one,
// as encoding/json leaves them.
func list[T any](d *decoder, elem func(*T) error) ([]T, error) {
	if null, err := d.open('[', "array"); null || err != nil {
		return nil, err
	}
	out := []T{}
	for n := 0; ; n++ {
		if ok, err := d.elem(n); !ok || err != nil {
			return out, err
		}
		out = append(out, *new(T))
		if err := elem(&out[n]); err != nil {
			return nil, err
		}
		d.pop()
	}
}

func (d *decoder) spec(s *Spec) error {
	return d.object(specFields, func(f int) (err error) {
		switch f {
		case 0:
			s.Version, err = d.str()
		case 1:
			s.Tenants, err = list(d, d.tenant)
		case 2:
			s.Apps, err = list(d, d.app)
		}
		return err
	})
}

func (d *decoder) tenant(t *TenantSpec) error {
	return d.object(tenantFields, func(int) (err error) {
		t.Name, err = d.str()
		return err
	})
}

func (d *decoder) app(a *AppSpec) error {
	return d.object(appFields, func(f int) (err error) {
		switch f {
		case 0:
			a.URI, err = d.str()
		case 1:
			a.Tenant, err = d.str()
		case 2:
			a.Path, err = list(d, func(p *string) (err error) {
				*p, err = d.str()
				return err
			})
		case 3:
			a.Segments, err = list(d, d.segment)
		}
		return err
	})
}

func (d *decoder) segment(g *SegmentSpec) error {
	return d.object(segmentFields, func(f int) (err error) {
		switch f {
		case 0:
			g.Name, err = d.str()
		case 1:
			g.App, err = d.str()
		case 2:
			g.Args, err = list(d, func(v *uint64) (err error) {
				*v, err = d.uint()
				return err
			})
		case 3:
			var v int64
			v, err = d.int()
			g.Scale = int(v)
		}
		return err
	})
}

// str decodes a string value; null reads as "".
func (d *decoder) str() (string, error) {
	if null, err := d.null(); null || err != nil {
		return "", err
	}
	if d.peek() != '"' {
		return "", d.mismatch("string")
	}
	v, err := d.quoted()
	return strings.Clone(v), err
}

// quoted reads the string literal at the cursor. One without escapes,
// control bytes or invalid UTF-8 is returned as a substring of src.
func (d *decoder) quoted() (string, error) {
	start := d.pos + 1
	for i := start; i < len(d.src); {
		c := d.src[i]
		switch {
		case c == '"':
			d.pos = i + 1
			return d.src[start:i], nil
		case c == '\\' || c < ' ':
			return d.unescape(start, i)
		case c < utf8.RuneSelf:
			i++
		default:
			r, size := utf8.DecodeRuneInString(d.src[i:])
			if r == utf8.RuneError && size == 1 {
				return d.unescape(start, i)
			}
			i += size
		}
	}
	d.pos = len(d.src)
	return "", d.syntax("unterminated string")
}

// unescape finishes a string literal that needs rewriting, from i on:
// escapes are decoded and invalid UTF-8 and unpaired surrogates become
// U+FFFD, as encoding/json reads them.
func (d *decoder) unescape(start, i int) (string, error) {
	b := make([]byte, 0, i-start+16)
	b = append(b, d.src[start:i]...)
	for i < len(d.src) {
		c := d.src[i]
		switch {
		case c == '"':
			d.pos = i + 1
			return string(b), nil
		case c < ' ':
			d.pos = i
			return "", d.syntax("control character in string")
		case c == '\\':
			if i+1 >= len(d.src) {
				d.pos = len(d.src)
				return "", d.syntax("unterminated string")
			}
			if k := strings.IndexByte(`"\/bfnrt`, d.src[i+1]); k >= 0 {
				b = append(b, "\"\\/\b\f\n\r\t"[k])
				i += 2
				continue
			}
			r := rune(-1)
			if d.src[i+1] == 'u' {
				r = hex4(d.src[i+2:])
			}
			if r < 0 {
				d.pos = i
				return "", d.syntax("invalid escape")
			}
			i += 6
			if r >= 0xD800 && r < 0xDC00 && strings.HasPrefix(d.src[i:], `\u`) {
				if lo := hex4(d.src[i+2:]); lo >= 0xDC00 && lo < 0xE000 {
					r = 0x10000 + (r-0xD800)<<10 + (lo - 0xDC00)
					i += 6
				}
			}
			// An unpaired surrogate is no rune; utf8 writes U+FFFD.
			b = utf8.AppendRune(b, r)
		case c < utf8.RuneSelf:
			b = append(b, c)
			i++
		default:
			r, size := utf8.DecodeRuneInString(d.src[i:])
			b = utf8.AppendRune(b, r)
			i += size
		}
	}
	d.pos = len(d.src)
	return "", d.syntax("unterminated string")
}

// hex4 decodes four hex digits, or returns -1.
func hex4(s string) rune {
	if len(s) < 4 {
		return -1
	}
	var r rune
	for _, c := range []byte(s[:4]) {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c = c - 'a' + 10
		case 'A' <= c && c <= 'F':
			c = c - 'A' + 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}

// number reads a JSON number literal and reports whether it is an
// integer (no fraction or exponent).
func (d *decoder) number() (lit string, integer bool, err error) {
	start := d.pos
	i := d.pos
	if i < len(d.src) && d.src[i] == '-' {
		i++
	}
	digits := func() int {
		n := 0
		for i < len(d.src) && '0' <= d.src[i] && d.src[i] <= '9' {
			i++
			n++
		}
		return n
	}
	switch {
	case i < len(d.src) && d.src[i] == '0':
		i++
	case digits() == 0:
		d.pos = i
		return "", false, d.syntax("invalid number")
	}
	integer = true
	if i < len(d.src) && d.src[i] == '.' {
		i++
		if digits() == 0 {
			d.pos = i
			return "", false, d.syntax("invalid number")
		}
		integer = false
	}
	if i < len(d.src) && (d.src[i] == 'e' || d.src[i] == 'E') {
		i++
		if i < len(d.src) && (d.src[i] == '+' || d.src[i] == '-') {
			i++
		}
		if digits() == 0 {
			d.pos = i
			return "", false, d.syntax("invalid number")
		}
		integer = false
	}
	d.pos = i
	return d.src[start:i], integer, nil
}

// uint decodes an unsigned 64-bit integer; null reads as 0.
func (d *decoder) uint() (uint64, error) {
	lit, err := d.numberOf("unsigned integer")
	if lit == "" || err != nil {
		return 0, err
	}
	v, perr := strconv.ParseUint(lit, 10, 64)
	if perr != nil {
		return 0, d.fail("want unsigned integer, got number %s", lit)
	}
	return v, nil
}

// int decodes a signed 64-bit integer; null reads as 0.
func (d *decoder) int() (int64, error) {
	lit, err := d.numberOf("integer")
	if lit == "" || err != nil {
		return 0, err
	}
	v, perr := strconv.ParseInt(lit, 10, 64)
	if perr != nil {
		return 0, d.fail("want integer, got number %s", lit)
	}
	return v, nil
}

// numberOf reads an integer literal for a field of kind want. It
// returns "" for null.
func (d *decoder) numberOf(want string) (string, error) {
	if null, err := d.null(); null || err != nil {
		return "", err
	}
	if c := d.peek(); c != '-' && (c < '0' || c > '9') {
		return "", d.mismatch(want)
	}
	lit, integer, err := d.number()
	if err != nil {
		return "", err
	}
	if !integer {
		return "", d.fail("want %s, got number %s", want, lit)
	}
	return lit, nil
}
