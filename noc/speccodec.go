package noc

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"unicode/utf8"
)

// The spec codec: ParseSpec's scanner, Spec.AppendJSON and the in-memory
// key Spec.AppendKey, written for Spec's closed key set so that none of
// them reflects or builds a per-call field table. The scanner and
// AppendJSON match encoding/json's verdicts, values and bytes exactly
// (DESIGN.md §13, "Spec codec"; FuzzSpecCodecMatchesJSON holds both
// directions to it), and AppendKey is equal for two canonical specs
// exactly when their canonical JSON is (FuzzSpecKeyMatchesCanonical).

// specKeys are the JSON keys of Spec's fields in declaration order: the
// order of the scanner's key switch and of Spec.encode's walk
// (TestSpecCodecFieldTable holds all three to the struct tags).
var specKeys = [...]string{
	"topology", "n", "w", "h", "dims", "router",
	"pattern", "dests", "port", "set_seed", "set_stream", "high", "low",
	"msglen", "rate", "alpha",
	"arrival", "burst_len", "duty_cycle",
	"spatial", "spatial_frac", "spatial_nodes", "spatial_weights",
	"damping", "max_iter", "tol", "wait", "service",
	"seed", "warmup", "measure", "sat_queue", "drain", "detail", "mc_priority",
	"trace_node", "trace_limit", "replications", "parallelism", "intra_parallelism",
	"metrics", "metrics_buckets", "evaluator",
}

// specNames is the closed vocabulary a spec's names are drawn from
// (topologies, routers, patterns, arrivals, spatials, the model formulas
// and the evaluators), each mapped to its own string: a decoded name is
// stored as that string instead of a fresh copy. It is built once, at
// init, and only read after.
var specNames = func() map[string]string {
	m := make(map[string]string)
	for _, names := range [][]string{
		Topologies(), Routers(), Patterns(), Arrivals(), Spatials(),
		waitNames[:], serviceNames[:], {"simulator", "model"},
	} {
		for _, name := range names {
			m[name] = name
		}
	}
	return m
}()

// foldKey is encoding/json's fallback key match: the index of the one key
// equal to key under Unicode case folding (so "ſeed" names seed), or -1.
func foldKey(key []byte) int {
	s := string(key)
	for i, k := range specKeys {
		if strings.EqualFold(s, k) {
			return i
		}
	}
	return -1
}

// specDecoder scans one spec document. key is the key whose value is
// being scanned, named by every rejection inside it.
type specDecoder struct {
	data []byte
	off  int
	key  []byte
}

// decodeJSON scans data into sp. Top-level null leaves sp as it is; a
// repeated key overwrites, decoding a repeated array over the earlier
// one's storage, as encoding/json does.
func (sp *Spec) decodeJSON(data []byte) error {
	d := specDecoder{data: data}
	d.space()
	if !d.literal("null") {
		if !d.next('{') {
			return d.fail(d.off, "a spec is a JSON object")
		}
		if err := d.members(sp); err != nil {
			return err
		}
	}
	d.space()
	if d.off < len(d.data) {
		return d.fail(d.off, "trailing data after the spec document")
	}
	return nil
}

func (d *specDecoder) fail(off int, format string, args ...any) error {
	msg := fmt.Sprintf(format, args...)
	if d.key == nil {
		return fmt.Errorf("%w: at offset %d: %s", ErrInvalidSpec, off, msg)
	}
	return fmt.Errorf("%w: %q at offset %d: %s", ErrInvalidSpec, d.key, off, msg)
}

func (d *specDecoder) space() {
	for d.off < len(d.data) && (d.data[d.off] == ' ' || d.data[d.off] == '\t' || d.data[d.off] == '\n' || d.data[d.off] == '\r') {
		d.off++
	}
}

// peek returns the next byte, or 0 (never valid there) at the end.
func (d *specDecoder) peek() byte {
	if d.off < len(d.data) {
		return d.data[d.off]
	}
	return 0
}

// next consumes c if it is the next byte.
func (d *specDecoder) next(c byte) bool {
	if d.peek() == c {
		d.off++
		return true
	}
	return false
}

func (d *specDecoder) literal(lit string) bool {
	if len(d.data)-d.off >= len(lit) && string(d.data[d.off:d.off+len(lit)]) == lit {
		d.off += len(lit)
		return true
	}
	return false
}

// members scans an object's members up to and including its '}'. An
// unknown key is rejected before a missing ':' after it is.
func (d *specDecoder) members(sp *Spec) error {
	d.space()
	if d.next('}') {
		return nil
	}
	for {
		d.key = nil
		start := d.off
		if d.peek() != '"' {
			return d.fail(start, "expected a quoted key")
		}
		key, err := d.str()
		if err != nil {
			return err
		}
		d.key = key
		d.space()
		if !d.next(':') {
			if foldKey(key) < 0 {
				return d.unknown(key, start)
			}
			return d.fail(d.off, "expected ':' after the key")
		}
		d.space()
		if err := d.member(sp, key, start); err != nil {
			return err
		}
		d.space()
		switch {
		case d.next(','):
			d.space()
		case d.next('}'):
			d.key = nil
			return nil
		default:
			return d.fail(d.off, "expected ',' or '}' after the value")
		}
	}
}

// member scans the value at d.off into the field key names: the exact
// spelling through the switch, else the key equal to it under case
// folding, as encoding/json matches. start is the key's offset, where
// an unknown key is reported.
func (d *specDecoder) member(sp *Spec, key []byte, start int) error {
	switch string(key) {
	case "topology":
		return d.text(&sp.Topology)
	case "n":
		return d.integer(&sp.N)
	case "w":
		return d.integer(&sp.W)
	case "h":
		return d.integer(&sp.H)
	case "dims":
		return d.integer(&sp.Dims)
	case "router":
		return d.text(&sp.Router)
	case "pattern":
		return d.text(&sp.Pattern)
	case "dests":
		return d.integer(&sp.Dests)
	case "port":
		return d.integer(&sp.Port)
	case "set_seed":
		return d.unsigned(&sp.SetSeed)
	case "set_stream":
		return d.unsigned(&sp.SetStream)
	case "high":
		return decodeList(d, &sp.High)
	case "low":
		return decodeList(d, &sp.Low)
	case "msglen":
		return d.integer(&sp.MsgLen)
	case "rate":
		return d.real(&sp.Rate)
	case "alpha":
		return d.real(&sp.Alpha)
	case "arrival":
		return d.text(&sp.Arrival)
	case "burst_len":
		return d.real(&sp.BurstLen)
	case "duty_cycle":
		return d.real(&sp.DutyCycle)
	case "spatial":
		return d.text(&sp.Spatial)
	case "spatial_frac":
		return d.real(&sp.SpatialFrac)
	case "spatial_nodes":
		return decodeList(d, &sp.SpatialNodes)
	case "spatial_weights":
		return decodeList(d, &sp.SpatialWeights)
	case "damping":
		return d.real(&sp.Damping)
	case "max_iter":
		return d.integer(&sp.MaxIter)
	case "tol":
		return d.real(&sp.Tol)
	case "wait":
		return d.text(&sp.Wait)
	case "service":
		return d.text(&sp.Service)
	case "seed":
		return d.unsigned(&sp.Seed)
	case "warmup":
		return d.real(&sp.Warmup)
	case "measure":
		return d.real(&sp.Measure)
	case "sat_queue":
		return d.integer(&sp.SatQueue)
	case "drain":
		return d.flag(&sp.Drain)
	case "detail":
		return d.flag(&sp.Detail)
	case "mc_priority":
		return d.flag(&sp.MulticastPriority)
	case "trace_node":
		return d.integer(&sp.TraceNode)
	case "trace_limit":
		return d.integer(&sp.TraceLimit)
	case "replications":
		return d.integer(&sp.Replications)
	case "parallelism":
		return d.integer(&sp.Parallelism)
	case "intra_parallelism":
		return d.integer(&sp.IntraParallelism)
	case "metrics":
		return d.flag(&sp.Metrics)
	case "metrics_buckets":
		return d.integer(&sp.MetricsBuckets)
	case "evaluator":
		return d.text(&sp.Evaluator)
	}
	if i := foldKey(key); i >= 0 {
		return d.member(sp, []byte(specKeys[i]), start)
	}
	return d.unknown(key, start)
}

// unknown rejects key, which names no field. A retired key names what
// replaced it (DESIGN.md §12: refused, not rewritten): the hotspot keys
// their one spelling, the trace paths quarcsim's flags.
func (d *specDecoder) unknown(key []byte, start int) error {
	switch k := string(key); {
	case strings.EqualFold(k, "hotspot_frac"), strings.EqualFold(k, "hotspot_node"):
		return d.fail(start, `retired field: state a hotspot as "spatial":"hotspot" with spatial_frac and spatial_nodes`)
	case strings.EqualFold(k, "record"), strings.EqualFold(k, "replay"):
		return d.fail(start, "retired field: a trace file is not spec content; pass it to quarcsim as -record or -replay")
	}
	return d.fail(start, "unknown field")
}

// The value scanners: each reads one value at d.off into the field p
// points to. null leaves a scalar as it is (and sets a slice to nil).

// text scans a string. A name of the closed vocabulary is stored as
// specNames' own string, so decoding it allocates nothing.
func (d *specDecoder) text(p *string) error {
	if d.literal("null") {
		return nil
	}
	if d.peek() != '"' {
		return d.fail(d.off, "expected a string")
	}
	s, err := d.str()
	if err != nil {
		return err
	}
	if name, ok := specNames[string(s)]; ok {
		*p = name
	} else {
		*p = string(s)
	}
	return nil
}

func (d *specDecoder) flag(p *bool) error {
	switch {
	case d.literal("null"):
	case d.literal("true"):
		*p = true
	case d.literal("false"):
		*p = false
	default:
		return d.fail(d.off, "expected true or false")
	}
	return nil
}

// integer, unsigned and real parse a number token with the strconv call
// encoding/json makes for the field's type.
func (d *specDecoder) integer(p *int) error {
	start := d.off
	if d.literal("null") {
		return nil
	}
	tok := d.number()
	n, err := strconv.ParseInt(string(tok), 10, strconv.IntSize)
	if err != nil {
		return d.numberError(start, tok, err, "an integer")
	}
	*p = int(n)
	return nil
}

func (d *specDecoder) unsigned(p *uint64) error {
	start := d.off
	if d.literal("null") {
		return nil
	}
	tok := d.number()
	n, err := strconv.ParseUint(string(tok), 10, 64)
	if err != nil {
		return d.numberError(start, tok, err, "an unsigned integer")
	}
	*p = n
	return nil
}

func (d *specDecoder) real(p *float64) error {
	start := d.off
	if d.literal("null") {
		return nil
	}
	tok := d.number()
	f, err := strconv.ParseFloat(string(tok), 64)
	if err != nil {
		return d.numberError(start, tok, err, "a float64")
	}
	*p = f
	return nil
}

// numberError is a number scanner's rejection of the token at start
// (nil when there is none), whose parse failed with err: no number there,
// one out of range, or one not of the field's type (want).
func (d *specDecoder) numberError(start int, tok []byte, err error, want string) error {
	switch {
	case tok == nil:
		return d.fail(start, "expected %s", want)
	case errors.Is(err, strconv.ErrRange):
		return d.fail(start, "%s is out of range for %s", tok, want)
	}
	return d.fail(start, "%s is not %s", tok, want)
}

// number scans a token of the JSON number grammar and returns it, or
// returns nil and consumes nothing.
func (d *specDecoder) number() []byte {
	start := d.off
	digits := func() bool {
		n := d.off
		for d.off < len(d.data) && '0' <= d.data[d.off] && d.data[d.off] <= '9' {
			d.off++
		}
		return d.off > n
	}
	d.next('-')
	ok := d.next('0') || digits()
	if ok && d.next('.') {
		ok = digits()
	}
	if ok && (d.next('e') || d.next('E')) {
		_ = d.next('+') || d.next('-')
		ok = digits()
	}
	if !ok {
		d.off = start
		return nil
	}
	return d.data[start:d.off]
}

// str scans the string token at d.off and returns its contents: the
// token's own bytes when it has no escape and no non-ASCII byte,
// json.Unmarshal's reading of it otherwise.
func (d *specDecoder) str() ([]byte, error) {
	start := d.off
	plain := true
	for i := start + 1; i < len(d.data); i++ {
		switch c := d.data[i]; {
		case c == '"':
			d.off = i + 1
			if plain {
				return d.data[start+1 : i], nil
			}
			var s string
			if json.Unmarshal(d.data[start:d.off], &s) != nil {
				return nil, d.fail(start, "invalid escape in a string")
			}
			return []byte(s), nil
		case c == '\\':
			plain = false
			i++ // the escaped byte cannot end the string; json.Unmarshal checks it
		case c < 0x20:
			return nil, d.fail(i, "control character in a string")
		case c >= utf8.RuneSelf:
			plain = false
		}
	}
	return nil, d.fail(start, "unterminated string")
}

// decodeList scans the array at d.off into *dst the way encoding/json
// fills a slice: over the existing storage (a null element keeps what is
// there), grown as needed, truncated to the elements read, and []
// becomes a fresh empty slice; null sets *dst to nil. The storage is
// grown once, to one more element than the commas before the first ']'
// (exact for any array the decode accepts).
func decodeList[T int | float64](d *specDecoder, dst *[]T) error {
	want := "an array of integers"
	if _, ok := any(dst).(*[]float64); ok {
		want = "an array of numbers"
	}
	if d.literal("null") {
		*dst = nil
		return nil
	}
	if !d.next('[') {
		return d.fail(d.off, "expected %s", want)
	}
	d.space()
	if d.next(']') {
		*dst = []T{}
		return nil
	}
	s := *dst
	if end := bytes.IndexByte(d.data[d.off:], ']'); end > 0 {
		if n := 1 + bytes.Count(d.data[d.off:d.off+end], []byte{','}); n > cap(s) {
			grown := make([]T, len(s), n)
			copy(grown[:cap(s)], s[:cap(s)])
			s = grown
		}
	}
	for i := 0; ; i++ {
		switch {
		case i < len(s):
		case i < cap(s):
			s = s[:i+1]
		default:
			s = append(s, 0)
		}
		var err error
		switch p := any(&s[i]).(type) {
		case *int:
			err = d.integer(p)
		case *float64:
			err = d.real(p)
		}
		if err != nil {
			return err
		}
		d.space()
		switch {
		case d.next(','):
			d.space()
		case d.next(']'):
			*dst = s[:i+1]
			return nil
		default:
			return d.fail(d.off, "expected ',' or ']' after an array element")
		}
	}
}

// AppendJSON appends the spec's JSON document to dst: the bytes
// json.Marshal writes for it (fields in declaration order, empty ones
// omitted, -0 omitted too), without reflecting. A non-finite float is
// json.Marshal's error, returned with a nil slice as json.Marshal does.
func (sp Spec) AppendJSON(dst []byte) ([]byte, error) {
	b, err := sp.encode(append(dst, '{'), len(dst), false)
	if err != nil {
		return nil, err
	}
	return append(b, '}'), nil
}

// AppendKey appends the spec's in-memory key to dst: a compact binary
// image of its fields, equal for two canonical specs exactly when their
// CanonicalJSON is (for any spec ParseSpec returns). It names a Result
// inside one process, as noc/service's tables do, and is no wire or disk
// format: CanonicalJSON and Fingerprint are the content address.
//
// The image is AppendJSON's walk with the same omissions (an empty
// field, a ±0 scalar): per field, its index in declaration order, then
// its value raw — an integer as a varint, a float as its IEEE bits, a
// string or a list as a length and its bytes or elements.
func (sp *Spec) AppendKey(dst []byte) []byte {
	b, _ := sp.encode(dst, 0, true)
	return b
}

// encode walks the spec's fields in declaration order and appends each
// non-empty one to b: as a JSON member of the object opened at b[start],
// or (key) as an AppendKey record. The error is the first float JSON
// cannot encode.
func (sp *Spec) encode(b []byte, start int, key bool) ([]byte, error) {
	field := 0
	var err error
	// open starts the record of the field the walk is at when that field
	// is set, and moves the walk on either way.
	open := func(set bool) bool {
		i := field
		field++
		switch {
		case !set:
		case key:
			b = append(b, byte(i))
		default:
			if len(b) > start+1 {
				b = append(b, ',')
			}
			b = append(b, '"')
			b = append(b, specKeys[i]...)
			b = append(b, '"', ':')
		}
		return set
	}
	// float writes one float: its bits (a list's -0 kept apart from 0,
	// as JSON's "-0" is) or its JSON number.
	float := func(f float64) {
		if key {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
			return
		}
		var ferr error
		if b, ferr = appendJSONFloat(b, f); err == nil {
			err = ferr
		}
	}
	text := func(s string) {
		switch {
		case !open(s != ""):
		case key:
			b = binary.AppendUvarint(b, uint64(len(s)))
			b = append(b, s...)
		default:
			b = appendJSONString(b, s)
		}
	}
	integer := func(v int) {
		switch {
		case !open(v != 0):
		case key:
			b = binary.AppendVarint(b, int64(v))
		default:
			b = strconv.AppendInt(b, int64(v), 10)
		}
	}
	unsigned := func(v uint64) {
		switch {
		case !open(v != 0):
		case key:
			b = binary.AppendUvarint(b, v)
		default:
			b = strconv.AppendUint(b, v, 10)
		}
	}
	flag := func(v bool) {
		if open(v) && !key {
			b = append(b, "true"...)
		}
	}
	real := func(f float64) {
		if open(f != 0) {
			float(f)
		}
	}
	// list writes a list's length or brackets around its elements.
	list := func(n int, elem func(i int)) {
		if !open(n > 0) {
			return
		}
		if key {
			b = binary.AppendUvarint(b, uint64(n))
			for i := 0; i < n; i++ {
				elem(i)
			}
			return
		}
		b = append(b, '[')
		for i := 0; i < n; i++ {
			if i > 0 {
				b = append(b, ',')
			}
			elem(i)
		}
		b = append(b, ']')
	}
	ints := func(xs []int) {
		list(len(xs), func(i int) {
			if key {
				b = binary.AppendVarint(b, int64(xs[i]))
			} else {
				b = strconv.AppendInt(b, int64(xs[i]), 10)
			}
		})
	}
	reals := func(xs []float64) { list(len(xs), func(i int) { float(xs[i]) }) }

	text(sp.Topology)
	integer(sp.N)
	integer(sp.W)
	integer(sp.H)
	integer(sp.Dims)
	text(sp.Router)
	text(sp.Pattern)
	integer(sp.Dests)
	integer(sp.Port)
	unsigned(sp.SetSeed)
	unsigned(sp.SetStream)
	ints(sp.High)
	ints(sp.Low)
	integer(sp.MsgLen)
	real(sp.Rate)
	real(sp.Alpha)
	text(sp.Arrival)
	real(sp.BurstLen)
	real(sp.DutyCycle)
	text(sp.Spatial)
	real(sp.SpatialFrac)
	ints(sp.SpatialNodes)
	reals(sp.SpatialWeights)
	real(sp.Damping)
	integer(sp.MaxIter)
	real(sp.Tol)
	text(sp.Wait)
	text(sp.Service)
	unsigned(sp.Seed)
	real(sp.Warmup)
	real(sp.Measure)
	integer(sp.SatQueue)
	flag(sp.Drain)
	flag(sp.Detail)
	flag(sp.MulticastPriority)
	integer(sp.TraceNode)
	integer(sp.TraceLimit)
	integer(sp.Replications)
	integer(sp.Parallelism)
	integer(sp.IntraParallelism)
	flag(sp.Metrics)
	integer(sp.MetricsBuckets)
	text(sp.Evaluator)
	return b, err
}

// appendJSONFloat is encoding/json's float64 form, ES6 number to string:
// 'f' inside [1e-6, 1e21), 'e' outside it with "e-07" cut to "e-7".
func appendJSONFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		_, err := json.Marshal(f)
		return dst, err
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst, nil
}

// appendJSONString quotes s; a string that needs escaping (a control
// character, a quote, a backslash, HTML's <, > and &, or any non-ASCII
// byte) is quoted by json.Marshal.
func appendJSONString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= utf8.RuneSelf || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always encodes
			return append(dst, q...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}
