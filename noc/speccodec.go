package noc

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"unicode/utf8"
)

// The spec codec: ParseSpec's scanner and Spec.AppendJSON, written for
// Spec's closed key set so that neither direction reflects, with
// encoding/json's verdicts, values and bytes exactly (DESIGN.md §13,
// "Spec codec"; FuzzSpecCodecMatchesJSON holds both directions to it).

// specKeys are the JSON keys of Spec's fields in declaration order, and
// Spec.fields the fields they name (TestSpecCodecFieldTable holds both
// to the struct tags).
var specKeys = [...]string{
	"topology", "n", "w", "h", "dims", "router",
	"pattern", "dests", "port", "set_seed", "high", "low",
	"msglen", "rate", "alpha", "hotspot_frac", "hotspot_node",
	"arrival", "burst_len", "duty_cycle",
	"spatial", "spatial_frac", "spatial_nodes", "spatial_weights",
	"damping", "max_iter", "tol", "wait", "service",
	"seed", "warmup", "measure", "sat_queue", "drain", "detail", "mc_priority",
	"trace_node", "trace_limit", "replications", "parallelism", "intra_parallelism",
	"metrics", "metrics_buckets", "evaluator", "record", "replay",
}

// specKeyIndex finds a key spelled exactly; fieldFor falls back to
// case-insensitive matching.
var specKeyIndex = func() map[string]int {
	m := make(map[string]int, len(specKeys))
	for i, k := range specKeys {
		m[k] = i
	}
	return m
}()

func (sp *Spec) fields() [len(specKeys)]any {
	return [...]any{
		&sp.Topology, &sp.N, &sp.W, &sp.H, &sp.Dims, &sp.Router,
		&sp.Pattern, &sp.Dests, &sp.Port, &sp.SetSeed, &sp.High, &sp.Low,
		&sp.MsgLen, &sp.Rate, &sp.Alpha, &sp.HotspotFrac, &sp.HotspotNode,
		&sp.Arrival, &sp.BurstLen, &sp.DutyCycle,
		&sp.Spatial, &sp.SpatialFrac, &sp.SpatialNodes, &sp.SpatialWeights,
		&sp.Damping, &sp.MaxIter, &sp.Tol, &sp.Wait, &sp.Service,
		&sp.Seed, &sp.Warmup, &sp.Measure, &sp.SatQueue, &sp.Drain, &sp.Detail, &sp.MulticastPriority,
		&sp.TraceNode, &sp.TraceLimit, &sp.Replications, &sp.Parallelism, &sp.IntraParallelism,
		&sp.Metrics, &sp.MetricsBuckets, &sp.Evaluator, &sp.Record, &sp.Replay,
	}
}

// fieldFor is encoding/json's key match: the exact spelling, else the
// one key equal under Unicode case folding (so "ſeed" sets Seed), else -1.
func fieldFor(key []byte) int {
	if i, ok := specKeyIndex[string(key)]; ok {
		return i
	}
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
		if !d.literal("{") {
			return d.fail(d.off, "a spec is a JSON object")
		}
		f := sp.fields()
		if err := d.members(&f); err != nil {
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

func (d *specDecoder) literal(lit string) bool {
	if len(d.data)-d.off >= len(lit) && string(d.data[d.off:d.off+len(lit)]) == lit {
		d.off += len(lit)
		return true
	}
	return false
}

// members scans an object's members up to and including its '}'.
func (d *specDecoder) members(f *[len(specKeys)]any) error {
	d.space()
	if d.literal("}") {
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
		i := fieldFor(key)
		if i < 0 {
			return d.fail(start, "unknown field")
		}
		d.space()
		if !d.literal(":") {
			return d.fail(d.off, "expected ':' after the key")
		}
		d.space()
		if err := d.value(f[i]); err != nil {
			return err
		}
		d.space()
		switch {
		case d.literal(","):
			d.space()
		case d.literal("}"):
			d.key = nil
			return nil
		default:
			return d.fail(d.off, "expected ',' or '}' after the value")
		}
	}
}

// value scans one value into the field p points to. null leaves a
// scalar as it is and sets a slice to nil.
func (d *specDecoder) value(p any) error {
	start := d.off
	if d.literal("null") {
		switch p := p.(type) {
		case *[]int:
			*p = nil
		case *[]float64:
			*p = nil
		}
		return nil
	}
	var want string // what the field takes, for a rejection
	var tok []byte  // a number token, parsed by the strconv call encoding/json makes
	var err error
	switch p := p.(type) {
	case *string:
		want = "a string"
		if d.peek() == '"' {
			s, err := d.str()
			*p = string(s)
			return err
		}
	case *bool:
		want = "true or false"
		if d.literal("true") || d.literal("false") {
			*p = d.data[start] == 't'
			return nil
		}
	case *int:
		want = "an integer"
		if tok = d.number(); tok != nil {
			var n int64
			n, err = strconv.ParseInt(string(tok), 10, strconv.IntSize)
			*p = int(n)
		}
	case *uint64:
		want = "an unsigned integer"
		if tok = d.number(); tok != nil {
			*p, err = strconv.ParseUint(string(tok), 10, 64)
		}
	case *float64:
		want = "a float64"
		if tok = d.number(); tok != nil {
			*p, err = strconv.ParseFloat(string(tok), 64)
		}
	case *[]int:
		want = "an array of integers"
		if d.peek() == '[' {
			return decodeList(d, p)
		}
	case *[]float64:
		want = "an array of numbers"
		if d.peek() == '[' {
			return decodeList(d, p)
		}
	}
	switch {
	case tok == nil:
		return d.fail(start, "expected %s", want)
	case errors.Is(err, strconv.ErrRange):
		return d.fail(start, "%s is out of range for %s", tok, want)
	case err != nil:
		return d.fail(start, "%s is not %s", tok, want)
	}
	return nil
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
	d.literal("-")
	ok := d.literal("0") || digits()
	if ok && d.literal(".") {
		ok = digits()
	}
	if ok && (d.literal("e") || d.literal("E")) {
		_ = d.literal("+") || d.literal("-")
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
// becomes a fresh empty slice. The storage is grown once, to one more
// element than the commas before the first ']' (exact for any array the
// decode accepts).
func decodeList[T int | float64](d *specDecoder, dst *[]T) error {
	d.off++
	d.space()
	if d.literal("]") {
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
		if err := d.value(&s[i]); err != nil {
			return err
		}
		d.space()
		switch {
		case d.literal(","):
			d.space()
		case d.literal("]"):
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
	start := len(dst)
	dst = append(dst, '{')
	key := func(i int) []byte {
		if len(dst) > start+1 {
			dst = append(dst, ',')
		}
		dst = append(dst, '"')
		dst = append(dst, specKeys[i]...)
		return append(dst, '"', ':')
	}
	var err error
	for i, field := range sp.fields() {
		switch v := field.(type) {
		case *string:
			if *v != "" {
				dst = appendJSONString(key(i), *v)
			}
		case *int:
			if *v != 0 {
				dst = strconv.AppendInt(key(i), int64(*v), 10)
			}
		case *uint64:
			if *v != 0 {
				dst = strconv.AppendUint(key(i), *v, 10)
			}
		case *bool:
			if *v {
				dst = append(key(i), "true"...)
			}
		case *float64:
			if *v != 0 {
				dst, err = appendJSONFloat(key(i), *v)
			}
		case *[]int:
			if len(*v) > 0 {
				dst, err = appendJSONList(key(i), *v, func(b []byte, x int) ([]byte, error) {
					return strconv.AppendInt(b, int64(x), 10), nil
				})
			}
		case *[]float64:
			if len(*v) > 0 {
				dst, err = appendJSONList(key(i), *v, appendJSONFloat)
			}
		}
		if err != nil {
			return nil, err
		}
	}
	return append(dst, '}'), nil
}

func appendJSONList[T int | float64](dst []byte, xs []T, elem func([]byte, T) ([]byte, error)) ([]byte, error) {
	dst = append(dst, '[')
	for i, x := range xs {
		if i > 0 {
			dst = append(dst, ',')
		}
		var err error
		if dst, err = elem(dst, x); err != nil {
			return dst, err
		}
	}
	return append(dst, ']'), nil
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
