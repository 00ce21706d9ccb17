package telemetry

import (
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestRenderSortedAndEscaped(t *testing.T) {
	r := NewRegistry()
	r.Describe("zeta_total", Counter, "last family\nwith newline")
	r.Describe("alpha_total", Counter, "first family")
	r.Collect(func() []Sample {
		return []Sample{
			{Name: "zeta_total", Value: 3},
			{Name: "alpha_total", Labels: map[string]string{"topic": "beta"}, Value: 2},
			{Name: "alpha_total", Labels: map[string]string{"topic": `a"b\c`}, Value: 1},
		}
	})
	out := r.Render()
	if !strings.Contains(out, "# HELP alpha_total first family\n# TYPE alpha_total counter\n") {
		t.Fatalf("missing alpha header:\n%s", out)
	}
	if !strings.Contains(out, `alpha_total{topic="a\"b\\c"} 1`) {
		t.Fatalf("label escaping wrong:\n%s", out)
	}
	if !strings.Contains(out, "# HELP zeta_total last family\\nwith newline\n") {
		t.Fatalf("help escaping wrong:\n%s", out)
	}
	if strings.Index(out, "alpha_total") > strings.Index(out, "zeta_total") {
		t.Fatalf("families not sorted:\n%s", out)
	}
	// Series within a family sort by label signature.
	esc := strings.Index(out, `topic="a\"b\\c"`)
	beta := strings.Index(out, `topic="beta"`)
	if esc < 0 || beta < 0 || esc > beta {
		t.Fatalf("series not sorted:\n%s", out)
	}
	// Deterministic: a second render of identical state is byte-identical.
	if out2 := r.Render(); out2 != out {
		t.Fatalf("render not deterministic:\n%s\nvs\n%s", out, out2)
	}
}

func TestRenderMultipleCollectors(t *testing.T) {
	r := NewRegistry()
	r.Collect(func() []Sample { return []Sample{{Name: "a_total", Value: 1}} })
	r.Collect(func() []Sample { return []Sample{{Name: "b_total", Value: 2}} })
	out := r.Render()
	if !strings.Contains(out, "a_total 1\n") || !strings.Contains(out, "b_total 2\n") {
		t.Fatalf("collector output missing:\n%s", out)
	}
}

func TestServeAndScrape(t *testing.T) {
	r := NewRegistry()
	var mu sync.Mutex
	published := 0
	r.Describe("ringcast_node_published_total", Counter, "messages published")
	r.Collect(func() []Sample {
		mu.Lock()
		defer mu.Unlock()
		return []Sample{{Name: "ringcast_node_published_total", Value: float64(published)}}
	})
	srv, err := Serve("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	scrape := func() Series {
		resp, err := http.Get(fmt.Sprintf("http://%s/metrics", srv.Addr()))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
			t.Fatalf("content type = %q", ct)
		}
		s, err := Scrape(srv.Addr(), 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	if s := scrape(); s["ringcast_node_published_total"] != 0 || len(s) != 1 {
		t.Fatalf("scrape = %v, want the one series at 0", s)
	}
	mu.Lock()
	published = 7
	mu.Unlock()
	if s := scrape(); s["ringcast_node_published_total"] != 7 {
		t.Fatalf("scrape did not reflect live state: %v", s)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	srv.Close() // idempotent
}

// TestParseRoundTrip pins Parse as Render's inverse: every rendered sample
// comes back under its name plus label signature with its exact value, and
// comments, blank and malformed lines are skipped.
func TestParseRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Describe("ringcast_node_delivered_total", Counter, "deliveries")
	r.Collect(func() []Sample {
		return []Sample{
			{Name: "ringcast_node_delivered_total", Labels: map[string]string{"topic": "alpha"}, Value: 12},
			{Name: "ringcast_node_delivered_total", Labels: map[string]string{"topic": `a "b"`}, Value: 3},
			{Name: "ringcast_config_gossip_interval_seconds", Value: 0.05},
			{Name: "ringcast_config_send_queue_cap", Value: 1 << 20},
			{Name: "ringcast_transport_bytes_sent_total", Value: 1<<53 - 1},
		}
	})
	got := Parse(r.Render() + "\nmalformed\nname notanumber\n")
	want := Series{
		`ringcast_node_delivered_total{topic="alpha"}`:   12,
		`ringcast_node_delivered_total{topic="a \"b\""}`: 3,
		"ringcast_config_gossip_interval_seconds":        0.05,
		"ringcast_config_send_queue_cap":                 1 << 20,
		"ringcast_transport_bytes_sent_total":            1<<53 - 1,
	}
	if len(got) != len(want) {
		t.Fatalf("parsed %d series, want %d: %v", len(got), len(want), got)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s = %v, want %v", k, got[k], v)
		}
	}
	if sum := got.Sum("ringcast_node_delivered_total"); sum != 15 {
		t.Errorf("Sum over topics = %v, want 15", sum)
	}
	if sum := got.Sum("ringcast_node_delivered"); sum != 0 {
		t.Errorf("Sum matched a name prefix: %v", sum)
	}
}
