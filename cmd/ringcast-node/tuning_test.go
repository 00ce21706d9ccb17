package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"ringcast/internal/node"
	"ringcast/internal/soak"
	"ringcast/internal/telemetry"
	"ringcast/internal/transport"
)

// wantSeries scrapes the node's /metrics page once and asserts each
// series carries its value.
func wantSeries(t *testing.T, addr string, want map[string]float64) {
	t.Helper()
	got, err := telemetry.Scrape(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	for name, v := range want {
		if g, ok := got[name]; !ok || g != v {
			t.Errorf("%s = %v (present %v), want %v", name, g, ok, v)
		}
	}
}

// TestControlSetRetunesLiveNode drives the store-to-setter binding end to
// end: a -config file at boot (with an integer at the sendq.cap maximum),
// a control-protocol set, and a single /metrics scrape right after the set
// replies — no polling, because the set returns only once the node has
// applied the value. An out-of-range set must leave the node untouched.
func TestControlSetRetunesLiveNode(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP test skipped in -short mode")
	}
	cfgPath := filepath.Join(t.TempDir(), "tuning.json")
	if err := os.WriteFile(cfgPath, []byte(`{"sendq.cap": 1048576}`), 0o644); err != nil {
		t.Fatal(err)
	}
	var out syncBuffer
	done := make(chan error, 1)
	go func() {
		done <- run([]string{
			"-listen", "127.0.0.1:0", "-config", cfgPath,
			"-control", "127.0.0.1:0", "-metrics", "127.0.0.1:0",
		}, strings.NewReader(""), &out)
	}()
	deadline := time.After(15 * time.Second)
	for !strings.Contains(out.String(), "SOAK ready") {
		select {
		case err := <-done:
			t.Fatalf("run exited before ready: %v\n%s", err, out.String())
		case <-deadline:
			t.Fatalf("timed out waiting for SOAK ready:\n%s", out.String())
		case <-time.After(10 * time.Millisecond):
		}
	}
	m := regexp.MustCompile(`control=(\S+) .* metrics=(\S+)`).FindStringSubmatch(out.String())
	if m == nil {
		t.Fatalf("no control/metrics address in output:\n%s", out.String())
	}
	c, err := soak.DialControl(m[1], 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := c.SetParam("gossip.interval", "50ms"); err != nil {
		t.Fatal(err)
	}
	// Version 1 is the boot-time file apply, version 2 the set.
	applied := map[string]float64{
		"ringcast_config_gossip_interval_seconds": 0.05,
		"ringcast_config_version":                 2,
		"ringcast_config_send_queue_cap":          1 << 20,
	}
	wantSeries(t, m[2], applied)
	// Every tunable key and every node counter has a series: /metrics is
	// the node's only counter surface.
	def := node.DefaultConfig()
	wantSeries(t, m[2], map[string]float64{
		`ringcast_node_queue_full_total{topic="default"}`: 0,
		"ringcast_config_cyclon_view":                     float64(def.Cyclon.ViewSize),
		"ringcast_config_vicinity_view":                   float64(def.Vicinity.ViewSize),
		"ringcast_config_send_batch_bytes":                float64(transport.DefaultMaxBatchBytes),
		"ringcast_config_send_idle_seconds":               transport.DefaultWriterIdle.Seconds(),
	})

	if err := c.SetParam("gossip.interval", "2h"); err == nil {
		t.Fatal("out-of-range gossip.interval accepted")
	}
	wantSeries(t, m[2], applied)

	if err := c.Quit(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run did not exit on control quit")
	}
}

// FuzzApplyJSON feeds arbitrary config files to the real key catalog. It
// must never panic; a rejected document must leave the version and every
// value unchanged; an accepted one must leave every key it names at that
// value's canonical form, and Set must accept the canonical form back
// unchanged.
func FuzzApplyJSON(f *testing.F) {
	tr, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { tr.Close() })
	for _, seed := range []string{
		`{"sendq.batch": 1048576}`,
		`{"sendq.cap": 1048576, "gossip.interval": "50ms", "cyclon.view": 20}`,
		`{"gossip.fanout": {"a": 1}}`,
		`{"gossip.fanout": null}`,
		`{"mystery": 1}`,
		`{"sendq.idle": "1m30s", "sendq.idle": "2s"}`,
		`{"vicinity.view": 1e1}`,
	} {
		f.Add([]byte(seed))
	}
	durations := map[string]bool{"gossip.interval": true, "sendq.idle": true}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := buildStore(node.DefaultConfig(), &tuner{tr: tr})
		if err != nil {
			t.Fatal(err)
		}
		before := s.Snapshot()
		v, err := s.ApplyJSON(data)
		after := s.Snapshot()
		if err != nil {
			if v != before.Version || !reflect.DeepEqual(before, after) {
				t.Fatalf("rejected document changed the store: %v\nbefore %v\nafter  %v @%d", err, before, after, v)
			}
			return
		}
		var doc map[string]any
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.UseNumber()
		if err := dec.Decode(&doc); err != nil {
			t.Fatalf("accepted a document that does not decode: %v", err)
		}
		if want := before.Version + uint64(len(doc)); v != want || after.Version != want {
			t.Fatalf("version = %d, want %d (one per key)", after.Version, want)
		}
		for k, raw := range doc {
			lit := fmt.Sprint(raw)
			var want string
			if durations[k] {
				d, err := time.ParseDuration(lit)
				if err != nil {
					t.Fatalf("%s: accepted %q: %v", k, lit, err)
				}
				want = d.String()
			} else {
				n, err := strconv.ParseInt(lit, 10, 64)
				if err != nil {
					t.Fatalf("%s: accepted %q: %v", k, lit, err)
				}
				want = strconv.FormatInt(n, 10)
			}
			if after.Values[k] != want {
				t.Fatalf("%s = %q after applying %q, want %q", k, after.Values[k], lit, want)
			}
			if _, err := s.Set(k, want); err != nil {
				t.Fatalf("canonical %s=%q does not round-trip through Set: %v", k, want, err)
			}
			if got := s.Snapshot().Values[k]; got != want {
				t.Fatalf("Set(%s, %q) stored %q", k, want, got)
			}
		}
	})
}
