// Package telemetry exposes a live node's counters — node.Stats,
// transport.Stats, pub/sub and config-engine state — as a Prometheus
// text-format /metrics HTTP endpoint, the observability half of the
// hot-reconfiguration engine: re-tuning the paper's parameters (fanout F,
// the gossip period T of Section 6) is only useful when the effect is
// visible in scraped series. It is also the one reader of that format:
// Scrape and Parse turn an exposition back into series, so every tool that
// reads a node's counters reads them the same way. Rendering is
// deterministic for a fixed set of samples: families sort by name and
// series by their label signature, so two scrapes of identical state are
// byte-identical. The package itself samples no randomness; timestamps are
// the scraper's business.
package telemetry

import (
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Sample is one metric observation: a family name, an optional label set
// and a value.
type Sample struct {
	// Name is the metric family, e.g. "ringcast_node_published_total".
	Name string
	// Labels attach dimensions ({topic="alpha"}); may be nil.
	Labels map[string]string
	// Value is the observation. Counters are cumulative; gauges are levels.
	Value float64
}

// Counter and Gauge are the metric types Describe accepts.
const (
	// Counter marks a cumulative, monotonically increasing family.
	Counter = "counter"
	// Gauge marks a family whose value can go up and down.
	Gauge = "gauge"
)

// Registry gathers samples from registered collectors and renders them in
// the Prometheus text exposition format. All methods are safe for
// concurrent use.
type Registry struct {
	mu         sync.Mutex
	descs      map[string]desc
	collectors []func() []Sample
}

type desc struct {
	typ  string
	help string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{descs: make(map[string]desc)}
}

// Describe records TYPE and HELP metadata for a metric family. Optional:
// undescribed families render without header comments.
func (r *Registry) Describe(name, typ, help string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.descs[name] = desc{typ: typ, help: help}
}

// Collect registers a sample source, called on every render. Collectors
// must be fast and non-blocking — they run while a scrape request waits.
func (r *Registry) Collect(fn func() []Sample) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.collectors = append(r.collectors, fn)
}

// Render gathers every collector and returns the Prometheus text
// exposition: families sorted by name, series within a family sorted by
// label signature, HELP/TYPE comments for described families.
func (r *Registry) Render() string {
	r.mu.Lock()
	collectors := append([]func() []Sample(nil), r.collectors...)
	descs := make(map[string]desc, len(r.descs))
	for k, v := range r.descs {
		descs[k] = v
	}
	r.mu.Unlock()

	byName := make(map[string][]Sample)
	for _, fn := range collectors {
		for _, s := range fn() {
			byName[s.Name] = append(byName[s.Name], s)
		}
	}
	names := make([]string, 0, len(byName))
	for name := range byName {
		names = append(names, name)
	}
	sort.Strings(names)

	var b strings.Builder
	for _, name := range names {
		if d, ok := descs[name]; ok {
			if d.help != "" {
				fmt.Fprintf(&b, "# HELP %s %s\n", name, escapeHelp(d.help))
			}
			if d.typ != "" {
				fmt.Fprintf(&b, "# TYPE %s %s\n", name, d.typ)
			}
		}
		series := byName[name]
		lines := make([]string, 0, len(series))
		for _, s := range series {
			lines = append(lines, name+labelString(s.Labels)+" "+
				strconv.FormatFloat(s.Value, 'g', -1, 64))
		}
		sort.Strings(lines)
		for _, line := range lines {
			b.WriteString(line)
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// labelString renders a label set as {k="v",...} with sorted keys, or ""
// for an empty set.
func labelString(labels map[string]string) string {
	if len(labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(labels[k]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// Handler returns an http.Handler serving the rendered registry at any
// path, with the text-exposition content type.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		body := r.Render()
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.Write([]byte(body))
	})
}

// Server is a minimal HTTP server bound to one registry.
type Server struct {
	ln  net.Listener
	srv *http.Server
	// serveErr is written by the serve goroutine before it closes done;
	// Close reads it only after receiving from done, so the channel close
	// orders the accesses.
	serveErr error
	done     chan struct{}
	once     sync.Once
}

// Serve starts an HTTP server on addr (e.g. "127.0.0.1:0") answering every
// request — conventionally scraped at /metrics — from the registry.
func Serve(addr string, r *Registry) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("telemetry: listen %s: %w", addr, err)
	}
	srv := &http.Server{Handler: r.Handler(), ReadHeaderTimeout: 5 * time.Second}
	s := &Server{ln: ln, srv: srv, done: make(chan struct{})}
	go func() {
		s.serveErr = srv.Serve(ln)
		close(s.done)
	}()
	return s, nil
}

// Addr returns the bound listen address, for the ready line and scrapers.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close shuts the server down and waits for the serve goroutine to exit.
func (s *Server) Close() error {
	var err error
	s.once.Do(func() {
		err = s.srv.Close()
		<-s.done
		if err == nil && s.serveErr != nil && !errors.Is(s.serveErr, http.ErrServerClosed) {
			err = s.serveErr
		}
	})
	return err
}

// Series is one parsed exposition: every sample keyed by its family name
// plus label signature, exactly as rendered — `ringcast_epoch` or
// `ringcast_node_delivered_total{topic="alpha"}`.
type Series map[string]float64

// Sum adds every sample of family name, labeled or not: the node-wide
// total of a per-topic counter. Samples are added in key order, so the sum
// does not depend on map iteration order.
func (s Series) Sum(name string) float64 {
	var keys []string
	for key := range s {
		if key == name || strings.HasPrefix(key, name+"{") {
			keys = append(keys, key)
		}
	}
	sort.Strings(keys)
	var sum float64
	for _, key := range keys {
		sum += s[key]
	}
	return sum
}

// Parse reads a text exposition as Render writes it. Comment, blank and
// unparseable lines are skipped: a reader of live counters keeps what it
// can read rather than failing a whole scrape on one odd line.
func Parse(text string) Series {
	out := make(Series)
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i <= 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}

// Scrape fetches http://addr/metrics once and parses it. timeout bounds
// the whole request.
func Scrape(addr string, timeout time.Duration) (Series, error) {
	client := &http.Client{Timeout: timeout}
	resp, err := client.Get("http://" + addr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 4<<20))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("telemetry: scrape %s: status %d", addr, resp.StatusCode)
	}
	return Parse(string(body)), nil
}
