// Package fleet posts one evaluation to a peer quarcd. Nothing in production
// calls it: kept only for the frozen benchmark's fleet.hop_us probe; ROADMAP
// item 1 deletes both.
package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"

	"quarc/noc"
	"quarc/noc/service"
)

// Config names the peer (Peers[0]) and its client; Local is not used.
type Config struct {
	Peers  []string
	Local  *service.Evaluator
	Client *http.Client
}

// Dispatcher evaluates specs on the configured peer.
type Dispatcher struct{ cfg Config }

// New checks that a peer and a client are given.
func New(cfg Config) (*Dispatcher, error) {
	if len(cfg.Peers) == 0 || cfg.Client == nil {
		return nil, fmt.Errorf("fleet: Config needs a peer and a client")
	}
	return &Dispatcher{cfg}, nil
}

// Evaluate POSTs sp's canonical JSON to the peer's /v1/evaluate and
// decodes a 200 answer that echoes sp's fingerprint, as SourceFleet.
func (d *Dispatcher) Evaluate(ctx context.Context, sp noc.Spec) (noc.Result, service.Source, error) {
	body, err := sp.CanonicalJSON()
	if err != nil {
		return noc.Result{}, "", fmt.Errorf("fleet: encoding spec: %w", err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, d.cfg.Peers[0]+"/v1/evaluate", bytes.NewReader(body))
	if err != nil {
		return noc.Result{}, "", fmt.Errorf("fleet: %w", err)
	}
	resp, err := d.cfg.Client.Do(req)
	if err != nil {
		return noc.Result{}, "", fmt.Errorf("fleet: %w", err)
	}
	defer resp.Body.Close()
	want := fmt.Sprintf("%016x", noc.FingerprintOf(body))
	if got := resp.Header.Get(service.HeaderFingerprint); resp.StatusCode != http.StatusOK || got != want {
		return noc.Result{}, "", fmt.Errorf("fleet: peer answered status %d, fingerprint %q for %s", resp.StatusCode, got, want)
	}
	var res noc.Result
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		return noc.Result{}, "", fmt.Errorf("fleet: decoding result: %w", err)
	}
	return res, service.SourceFleet, nil
}
