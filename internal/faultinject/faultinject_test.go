package faultinject

import (
	"bytes"
	"errors"
	"testing"
)

// TestNilInjectorIsInert pins the production path: a nil injector never
// injects and never panics.
func TestNilInjectorIsInert(t *testing.T) {
	var in *Injector
	if k := in.Decide("p"); k != KindNone {
		t.Errorf("nil Decide = %v, want none", k)
	}
	if err := in.Err("p"); err != nil {
		t.Errorf("nil Err = %v", err)
	}
	data := []byte("payload")
	out, err := in.Mangle("p", data)
	if err != nil || !bytes.Equal(out, data) {
		t.Errorf("nil Mangle = %q, %v", out, err)
	}
	if in.Fired("p") != 0 {
		t.Errorf("nil Fired != 0")
	}
}

// TestDeterministicSequence pins the core property: two injectors with
// the same seed and rules produce identical decision sequences at every
// point, independent of interleaving with other points.
func TestDeterministicSequence(t *testing.T) {
	rules := []Rule{
		{Point: "a", Kind: KindError, Prob: 0.5},
		{Point: "b", Kind: KindCorrupt, Prob: 0.3},
	}
	seq := func(interleave bool) []Kind {
		in := New(42, rules...)
		var out []Kind
		for i := 0; i < 200; i++ {
			if interleave {
				in.Decide("b") // unrelated point must not disturb "a"
			}
			out = append(out, in.Decide("a"))
		}
		return out
	}
	plain, mixed := seq(false), seq(true)
	for i := range plain {
		if plain[i] != mixed[i] {
			t.Fatalf("call %d: %v with interleaving, %v without", i, mixed[i], plain[i])
		}
	}
	fired := 0
	for _, k := range plain {
		if k == KindError {
			fired++
		}
	}
	if fired < 50 || fired > 150 {
		t.Errorf("prob 0.5 fired %d/200 times", fired)
	}
	if in := New(7, rules...); in.Decide("a") == KindNone && in.Fired("a") != 0 {
		t.Errorf("Fired counts a non-firing call")
	}
}

// TestFirstAndAfter pins the windowing knobs: After skips leading
// calls, First caps total fires — the "fail the first two attempts,
// then recover" retry-test shape.
func TestFirstAndAfter(t *testing.T) {
	in := New(1, Rule{Point: "p", Kind: KindError, First: 2, After: 1})
	want := []Kind{KindNone, KindError, KindError, KindNone, KindNone}
	for i, w := range want {
		if got := in.Decide("p"); got != w {
			t.Errorf("call %d = %v, want %v", i, got, w)
		}
	}
	if got := in.Fired("p"); got != 2 {
		t.Errorf("Fired = %d, want 2", got)
	}
}

// TestRulePrecedence pins first-match-wins among rules on one point.
func TestRulePrecedence(t *testing.T) {
	in := New(1,
		Rule{Point: "p", Kind: KindError, First: 1},
		Rule{Point: "p", Kind: KindCorrupt},
	)
	if got := in.Decide("p"); got != KindError {
		t.Errorf("call 0 = %v, want error", got)
	}
	if got := in.Decide("p"); got != KindCorrupt {
		t.Errorf("call 1 = %v, want corrupt (first rule exhausted)", got)
	}
}

// TestErrHelper pins the error-seam helper's mapping: every fault kind,
// a write-path one included, fails the call with ErrInjected.
func TestErrHelper(t *testing.T) {
	in := New(1,
		Rule{Point: "p", Kind: KindCorrupt, First: 1},
		Rule{Point: "p", Kind: KindError, First: 1},
	)
	if err := in.Err("p"); !errors.Is(err, ErrInjected) {
		t.Errorf("corrupt call = %v, want ErrInjected", err)
	}
	if err := in.Err("p"); !errors.Is(err, ErrInjected) {
		t.Errorf("error call = %v, want ErrInjected", err)
	}
	if err := in.Err("p"); err != nil {
		t.Errorf("exhausted rules: %v", err)
	}
}

// TestMangle pins each write-path damage mode and that the input buffer
// is never modified in place.
func TestMangle(t *testing.T) {
	orig := []byte("0123456789abcdef")
	data := append([]byte(nil), orig...)

	in := New(1, Rule{Point: "p", Kind: KindShortWrite, First: 1})
	out, err := in.Mangle("p", data)
	if err != nil || len(out) != len(data)/2 || !bytes.Equal(out, data[:len(data)/2]) {
		t.Errorf("short write = %q, %v", out, err)
	}

	in = New(1, Rule{Point: "p", Kind: KindCorrupt, First: 1})
	out, err = in.Mangle("p", data)
	if err != nil || len(out) != len(data) || bytes.Equal(out, data) {
		t.Errorf("corrupt = %q, %v", out, err)
	}
	if !bytes.Equal(data, orig) {
		t.Errorf("Mangle modified its input: %q", data)
	}

	in = New(1, Rule{Point: "p", Kind: KindError, First: 1})
	if _, err := in.Mangle("p", data); !errors.Is(err, ErrInjected) {
		t.Errorf("error = %v, want ErrInjected", err)
	}
	if out, err := in.Mangle("p", data); err != nil || !bytes.Equal(out, data) {
		t.Errorf("clean call = %q, %v", out, err)
	}
}
