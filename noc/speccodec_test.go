package noc

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// parseSpecJSON is the decoder ParseSpec used before the hand-written
// codec, kept as its oracle: encoding/json's strict decoder and the
// trailing-data check, then Validate when validate is set.
func parseSpecJSON(data []byte, validate bool) (Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var sp Spec
	if err := dec.Decode(&sp); err != nil {
		return Spec{}, fmt.Errorf("%w: %w", ErrInvalidSpec, err)
	}
	if err := dec.Decode(&struct{}{}); err != io.EOF {
		return Spec{}, fmt.Errorf("%w: trailing data after the spec document", ErrInvalidSpec)
	}
	if validate {
		if err := sp.Validate(); err != nil {
			return Spec{}, err
		}
	}
	return sp, nil
}

// fingerprintJSON is Fingerprint as it was computed through json.Marshal.
func fingerprintJSON(sp Spec) uint64 {
	b, err := json.Marshal(sp.Canonical())
	if err != nil {
		b = []byte("noc:unencodable-spec:" + err.Error())
	}
	return fnv1a(b)
}

// serveHotShapes are the eight network shapes of the benchmark's
// serve-hot workload (benchmark/workloads.go structuralKeys) as complete
// documents, the same list noc/service's hit tests serve.
var serveHotShapes = []string{
	`{"topology":"quarc","n":16,"msglen":16,"pattern":"localized","dests":4,"alpha":0.05,"rate":0.004,"seed":11,"warmup":1000,"measure":4000}`,
	`{"topology":"quarc","n":32,"msglen":16,"pattern":"random","dests":6,"set_seed":7,"alpha":0.05,"rate":0.002,"seed":12,"warmup":1000,"measure":4000}`,
	`{"topology":"mesh","w":4,"h":4,"msglen":8,"rate":0.007,"seed":13,"warmup":1000,"measure":4000}`,
	`{"topology":"spidergon","n":16,"msglen":16,"rate":0.003,"seed":14,"warmup":1000,"measure":4000}`,
	`{"topology":"quarc","n":16,"msglen":16,"pattern":"broadcast","alpha":0.03,"rate":0.003,"seed":15,"warmup":1000,"measure":4000}`,
	`{"topology":"torus","w":4,"h":4,"msglen":8,"rate":0.008,"seed":16,"warmup":1000,"measure":4000}`,
	`{"topology":"hypercube","dims":4,"msglen":8,"rate":0.008,"seed":17,"warmup":1000,"measure":4000}`,
	`{"topology":"quarc","n":32,"msglen":8,"pattern":"localized","port":1,"dests":5,"alpha":0.1,"rate":0.004,"seed":18,"warmup":1000,"measure":4000}`,
}

// specCodecQuirks are one document per encoding/json behaviour the codec
// reproduces, plus the edge tokens of the number and string grammars.
var specCodecQuirks = []string{
	`null`,
	" \t\r\nnull\n",
	`{"ſeed":7,"N":16,"TOPOLOGY":"quarc","Set_Seed":3}`,
	`{"n":5,"n":null,"drain":true,"drain":null,"topology":"mesh","topology":null,"rate":0.5,"rate":null}`,
	`{"high":[1,2],"high":null}`,
	`{"high":[1,2],"high":[null,5]}`,
	`{"high":[1,2,3],"high":[7,null]}`,
	`{"high":[1,2,3],"high":[4],"high":[null,null,null,null]}`,
	`{"high":[],"low":[ ],"spatial_nodes":[],"spatial_weights":[]}`,
	`{"spatial_weights":[0.5,1],"spatial_weights":[null,2,null]}`,
	`{"n":1e1}`,
	`{"n":1.0}`,
	`{"seed":-1}`,
	`{"seed":-0}`,
	`{"n":-0,"rate":-0,"spatial_weights":[-0]}`,
	`{"rate":1E+0}`,
	`{"rate":1e-400}`,
	`{"rate":1e400}`,
	`{"n":9223372036854775807}`,
	`{"n":9223372036854775808}`,
	`{"seed":18446744073709551615}`,
	`{"seed":18446744073709551616}`,
	`{"warmup":2000000,"measure":1e21,"tol":0.00001,"damping":1e-7,"rate":123456789012,"alpha":5e-324}`,
	`{"topology":"<a&b>"}`,
	`{"topology":" "}`,
	"{\"topology\":\"\xff\"}",
	`{"topology":"quärc","router":"\u2028"}`,
	`{"\u006e":16,"topology":"qu\u0061rc","router":"a\"b\\c\/d\n"}`,
	`{"topology":"\x"}`,
	"{\"topology\":\"a\x01\"}",
	`{"n":16,}`,
	"\xef\xbb\xbf{}",
	"\t{\n\"n\" : 16 ,\r\"rate\":0.002 }\n",
	`{"n":016}`,
	`{"n":+1}`,
	`{"rate":1.}`,
	`{"rate":.5}`,
	`{"rate":1e}`,
	`{"high":[[1]]}`,
	`{"topology":{}}`,
	`{"drain":1}`,
	`{"drain":tru}`,
	`{"n":16}null`,
	`nullnull`,
	``,
	`   `,
}

// specCorpus reads the documents of a fuzz seed corpus directory under
// testdata/fuzz (Go's corpus file format, one []byte per file).
func specCorpus(tb testing.TB, fuzzer string) []string {
	tb.Helper()
	files, err := filepath.Glob(filepath.Join("testdata", "fuzz", fuzzer, "*"))
	if err != nil || len(files) == 0 {
		tb.Fatalf("no %s seed corpus found: %v", fuzzer, err)
	}
	var docs []string
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			tb.Fatal(err)
		}
		_, line, _ := strings.Cut(string(data), "\n")
		line = strings.TrimSuffix(strings.TrimPrefix(strings.TrimSpace(line), "[]byte("), ")")
		doc, err := strconv.Unquote(line)
		if err != nil {
			tb.Fatalf("%s: %v", f, err)
		}
		docs = append(docs, doc)
	}
	return docs
}

// checkSpecCodec holds the codec to encoding/json on one document: the
// same ParseSpec verdict, the same decoded value before Validate (nil
// and empty slices told apart), and AppendJSON writing json.Marshal's
// bytes for that value and for its canonical form.
func checkSpecCodec(t *testing.T, data []byte) {
	t.Helper()
	_, err := ParseSpec(data)
	_, werr := parseSpecJSON(data, true)
	if (err == nil) != (werr == nil) {
		t.Fatalf("%q: ParseSpec error %v, encoding/json error %v", data, err, werr)
	}
	if err != nil && !errors.Is(err, ErrInvalidSpec) && !errors.Is(err, ErrOptionConflict) {
		t.Fatalf("%q: error %v wraps neither ErrInvalidSpec nor ErrOptionConflict", data, err)
	}
	var got Spec
	err = got.decodeJSON(data)
	want, werr := parseSpecJSON(data, false)
	if (err == nil) != (werr == nil) {
		t.Fatalf("%q: codec error %v, encoding/json error %v", data, err, werr)
	}
	if err != nil {
		return
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%q: codec decodes %#v,\nencoding/json %#v", data, got, want)
	}
	for _, sp := range []Spec{got, got.Canonical()} {
		checkAppendJSON(t, sp)
	}
}

func checkAppendJSON(t *testing.T, sp Spec) {
	t.Helper()
	b, err := sp.AppendJSON([]byte("prefix"))
	want, werr := json.Marshal(sp)
	if fmt.Sprint(err) != fmt.Sprint(werr) {
		t.Fatalf("%#v: AppendJSON error %v, json.Marshal error %v", sp, err, werr)
	}
	if werr == nil {
		want = append([]byte("prefix"), want...)
	}
	if !bytes.Equal(b, want) || (b == nil) != (want == nil) {
		t.Fatalf("%#v:\nAppendJSON   %s\njson.Marshal %s", sp, b, want)
	}
	if got, want := sp.Fingerprint(), fingerprintJSON(sp); got != want {
		t.Fatalf("%#v: fingerprint %016x, json.Marshal's %016x", sp, got, want)
	}
}

// FuzzSpecCodecMatchesJSON is the codec's differential oracle against
// encoding/json (checkSpecCodec), seeded with FuzzSpecJSON's corpus and
// one document per quirk.
func FuzzSpecCodecMatchesJSON(f *testing.F) {
	for _, docs := range [][]string{specFuzzSeeds, specCorpus(f, "FuzzSpecJSON"), specCodecQuirks, serveHotShapes} {
		for _, s := range docs {
			f.Add([]byte(s))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) { checkSpecCodec(t, data) })
}

// TestSpecCodecFieldTable holds the codec's key list and field pointers
// to Spec's declaration: every field, in order, under its json tag.
func TestSpecCodecFieldTable(t *testing.T) {
	var sp Spec
	rv := reflect.ValueOf(&sp).Elem()
	fields := sp.fields()
	if rv.NumField() != len(specKeys) {
		t.Fatalf("Spec has %d fields, the codec knows %d", rv.NumField(), len(specKeys))
	}
	for i := 0; i < rv.NumField(); i++ {
		sf := rv.Type().Field(i)
		if tag := sf.Tag.Get("json"); tag != specKeys[i]+",omitempty" {
			t.Errorf("field %s: tag %q, the codec reads key %q", sf.Name, tag, specKeys[i])
		}
		if fields[i] != rv.Field(i).Addr().Interface() {
			t.Errorf("fields()[%d] does not point at %s", i, sf.Name)
		}
	}
}

// TestSpecCodecEveryField sets every field at once, cycling each through
// awkward values (HTML and control characters, invalid UTF-8, both float
// format cutoffs, -0, the integer extremes), and checks both directions
// against encoding/json, then puts each non-finite float in each float
// field: the same error, the same unencodable fingerprint.
func TestSpecCodecEveryField(t *testing.T) {
	strs := []string{"quarc", "<a&b>", "a\"b\\c", "é", "\u2028", "\x01\x7f", "\xff", " "}
	ints := []int64{1, -1, math.MaxInt64, math.MinInt64, 4096}
	uints := []uint64{1, math.MaxUint64, 42}
	list := []int{0, -3, math.MaxInt, math.MinInt, 7}
	floats := []float64{1e-6, 9.999999e-7, 1e21, 1e20, 5e-324, math.MaxFloat64, -0.5, 1e-7, 123456789.125, math.Copysign(0, -1)}
	for variant := 0; variant < 10; variant++ {
		var sp Spec
		rv := reflect.ValueOf(&sp).Elem()
		for i := 0; i < rv.NumField(); i++ {
			k := i + variant
			switch f := rv.Field(i); f.Kind() {
			case reflect.String:
				f.SetString(strs[k%len(strs)])
			case reflect.Int:
				f.SetInt(ints[k%len(ints)])
			case reflect.Uint64:
				f.SetUint(uints[k%len(uints)])
			case reflect.Float64:
				f.SetFloat(floats[k%len(floats)])
			case reflect.Bool:
				f.SetBool(k%2 == 0)
			case reflect.Slice:
				if f.Type().Elem().Kind() == reflect.Int {
					f.Set(reflect.ValueOf(list[:k%len(list)]))
				} else {
					f.Set(reflect.ValueOf(floats[:k%len(floats)]))
				}
			}
		}
		checkAppendJSON(t, sp)
		doc, err := json.Marshal(sp)
		if err != nil {
			t.Fatal(err)
		}
		checkSpecCodec(t, doc)
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		rv := reflect.ValueOf(&Spec{Arrival: "onoff", Spatial: "hotspot"}).Elem()
		for i := 0; i < rv.NumField(); i++ {
			sp := rv.Interface().(Spec)
			switch f := reflect.ValueOf(&sp).Elem().Field(i); f.Kind() {
			case reflect.Float64:
				f.SetFloat(bad)
			case reflect.Slice:
				if f.Type().Elem().Kind() != reflect.Float64 {
					continue
				}
				f.Set(reflect.ValueOf([]float64{1, bad, math.NaN()}))
			default:
				continue
			}
			checkAppendJSON(t, sp)
		}
	}
}

// TestSpecCodecQuirks runs the oracle over the quirk documents and pins
// the values the quirks produce.
func TestSpecCodecQuirks(t *testing.T) {
	for _, doc := range specCodecQuirks {
		checkSpecCodec(t, []byte(doc))
	}
	for doc, want := range map[string]Spec{
		`null`:                           {},
		`{"ſeed":7,"N":16}`:              {Seed: 7, N: 16},
		`{"n":5,"n":null}`:               {N: 5},
		`{"high":[1,2],"high":[null,5]}`: {High: []int{1, 5}},
		`{"high":[1,2,3],"high":[4],"high":[null,null,null,null]}`: {High: []int{4, 2, 3, 0}},
		`{"high":[]}`:              {High: []int{}},
		`{"high":[1],"high":null}`: {},
	} {
		got, err := ParseSpec([]byte(doc))
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("%s: decoded %#v, %v; want %#v", doc, got, err, want)
		}
	}
}

// TestSpecCodecRejections pins where a rejection says it happened: every
// class wraps ErrInvalidSpec, names the key it happened under (if any)
// and gives the byte offset; encoding/json rejects each one too.
func TestSpecCodecRejections(t *testing.T) {
	cases := []struct {
		class, doc, key, msg string
	}{
		{"unknown field", `{"n":16,"bogus":1}`, "bogus", "at offset 8: unknown field"},
		{"fraction into an int", `{"n": 1.5}`, "n", `"n" at offset 6: 1.5 is not an integer`},
		{"exponent into an int", `{"n":1e1}`, "n", "1e1 is not an integer"},
		{"negative seed", `{"seed":-1}`, "seed", "-1 is not an unsigned integer"},
		{"int overflow", `{"n":9223372036854775808}`, "n", "out of range"},
		{"float overflow", `{"rate":1e400}`, "rate", "1e400 is out of range"},
		{"string into a number", `{"rate":"fast"}`, "rate", "expected a float64"},
		{"number into a string", `{"topology":16}`, "topology", "expected a string"},
		{"number into a bool", `{"drain":1}`, "drain", "expected true or false"},
		{"nested array", `{"high":[[1]]}`, "high", "expected an integer"},
		{"object into a string", `{"topology":{}}`, "topology", "expected a string"},
		{"missing colon", `{"n" 16}`, "n", "expected ':'"},
		{"missing comma", `{"n":16 "w":4}`, "n", "expected ',' or '}'"},
		{"unterminated string", `{"topology":"quarc`, "topology", "unterminated string"},
		{"control character", "{\"topology\":\"a\tb\"}", "topology", "control character"},
		{"bad escape", `{"topology":"\x"}`, "topology", "invalid escape"},
		{"bad literal", `{"drain":tru}`, "drain", "expected true or false"},
		{"trailing comma", `{"n":16,}`, "", "at offset 8: expected a quoted key"},
		{"trailing document", `{"n":16} {"n":8}`, "", "at offset 9: trailing data"},
		{"top-level array", `[1,2]`, "", "at offset 0: a spec is a JSON object"},
		{"byte-order mark", "\xef\xbb\xbf{}", "", "at offset 0"},
		{"empty document", ``, "", "at offset 0"},
	}
	for _, tc := range cases {
		_, err := ParseSpec([]byte(tc.doc))
		if err == nil {
			t.Errorf("%s: %q accepted", tc.class, tc.doc)
			continue
		}
		if !errors.Is(err, ErrInvalidSpec) {
			t.Errorf("%s: %v does not wrap ErrInvalidSpec", tc.class, err)
		}
		if tc.key != "" && !strings.Contains(err.Error(), strconv.Quote(tc.key)) {
			t.Errorf("%s: %q does not name the key %q", tc.class, err, tc.key)
		}
		if !strings.Contains(err.Error(), tc.msg) {
			t.Errorf("%s: %q does not say %q", tc.class, err, tc.msg)
		}
		if _, werr := parseSpecJSON([]byte(tc.doc), true); werr == nil {
			t.Errorf("%s: encoding/json accepts %q", tc.class, tc.doc)
		}
	}
}

// TestSpecCodecAllocs pins the codec's allocation budget on the serve-hot
// shapes: encoding a canonical spec into a large enough buffer allocates
// nothing, nor does Fingerprint; CanonicalJSON allocates its one buffer;
// ParseSpec allocates at most once per non-empty string or slice field.
func TestSpecCodecAllocs(t *testing.T) {
	docs := append(serveHotShapes[:len(serveHotShapes):len(serveHotShapes)],
		`{"topology":"mesh","w":4,"h":4,"pattern":"highlow","high":[1,3,5],"low":[2],"spatial":"hotspot","spatial_nodes":[0,5],"spatial_weights":[0.25,0.75,1]}`)
	buf := make([]byte, 0, 512)
	for _, doc := range docs {
		data := []byte(doc)
		sp, err := ParseSpec(data)
		if err != nil {
			t.Fatal(err)
		}
		c := sp.Canonical()
		if a := testing.AllocsPerRun(100, func() { buf, _ = c.AppendJSON(buf[:0]) }); a != 0 {
			t.Errorf("%s: AppendJSON into a 512-byte buffer allocates %.0f times", doc, a)
		}
		if a := testing.AllocsPerRun(100, func() { sp.Fingerprint() }); a != float64(sp.refFields()) {
			t.Errorf("%s: Fingerprint allocates %.0f times, want %d (Canonical's list clones)", doc, a, sp.refFields())
		}
		if a := testing.AllocsPerRun(100, func() { _, _ = c.CanonicalJSON() }); a != float64(1+c.refFields()) {
			t.Errorf("%s: CanonicalJSON allocates %.0f times, want one buffer and Canonical's list clones", doc, a)
		}
		budget := sp.refFields() + sp.stringFields()
		if a := testing.AllocsPerRun(100, func() { _, _ = ParseSpec(data) }); a > float64(budget) {
			t.Errorf("%s: ParseSpec allocates %.0f times, want <= %d", doc, a, budget)
		}
	}
}

// refFields and stringFields count the spec's non-empty slice and string
// fields.
func (sp Spec) refFields() int {
	n := 0
	for _, l := range []int{len(sp.High), len(sp.Low), len(sp.SpatialNodes), len(sp.SpatialWeights)} {
		if l > 0 {
			n++
		}
	}
	return n
}

func (sp Spec) stringFields() int {
	n := 0
	for _, f := range sp.fields() {
		if s, ok := f.(*string); ok && *s != "" {
			n++
		}
	}
	return n
}

func BenchmarkParseSpec(b *testing.B) {
	docs := make([][]byte, len(serveHotShapes))
	for i, s := range serveHotShapes {
		docs[i] = []byte(s)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ParseSpec(docs[i%len(docs)]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAppendJSON(b *testing.B) {
	specs := make([]Spec, len(serveHotShapes))
	for i, s := range serveHotShapes {
		sp, err := ParseSpec([]byte(s))
		if err != nil {
			b.Fatal(err)
		}
		specs[i] = sp.Canonical()
	}
	buf := make([]byte, 0, 512)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf, _ = specs[i%len(specs)].AppendJSON(buf[:0])
	}
}
