// Package config is the hot-reconfiguration engine: a typed, versioned
// key/value store that lets every protocol parameter the paper sweeps
// (fanout F, view sizes, the gossip period T of Section 6) and every
// operational knob layered on since (send-queue caps, batch bytes, writer
// idle) be re-tuned on a live node without a restart. Each key is a bounded
// int or duration carrying the setter its values feed. Commits are
// synchronous: Set and ApplyJSON run each changed key's setter, in commit
// order, before they return. Versions come from a seedless counter and no
// clock or randomness is consulted, so a given sequence of Sets produces
// the same sequence of setter calls on every run.
//
//ringcast:deterministic
package config

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
	"time"
)

// Def defines one key: its name, type, default, inclusive bounds and the
// setter its committed values feed. Build one with IntKey or DurationKey.
type Def struct {
	name          string
	dur           bool // a time.Duration, held in nanoseconds
	def, min, max int64
	set           func(int64) error
}

// IntKey defines an integer key with default def, accepted range
// [min, max], and set, which receives every committed value.
func IntKey(name string, def, min, max int, set func(int) error) Def {
	return Def{name: name, def: int64(def), min: int64(min), max: int64(max),
		set: func(v int64) error { return set(int(v)) }}
}

// DurationKey defines a duration key with default def, accepted range
// [min, max], and set, which receives every committed value.
func DurationKey(name string, def, min, max time.Duration, set func(time.Duration) error) Def {
	return Def{name: name, dur: true, def: int64(def), min: int64(min), max: int64(max),
		set: func(v int64) error { return set(time.Duration(v)) }}
}

// parse validates raw against the key's type and bounds.
func (d Def) parse(raw string) (int64, error) {
	v, err := strconv.ParseInt(raw, 10, 64)
	kind := "an int"
	if d.dur {
		var x time.Duration
		x, err = time.ParseDuration(raw)
		v, kind = int64(x), "a duration"
	}
	if err != nil {
		return 0, fmt.Errorf("%q is not %s", raw, kind)
	}
	if v < d.min || v > d.max {
		return 0, fmt.Errorf("%s out of range [%s, %s]", d.format(v), d.format(d.min), d.format(d.max))
	}
	return v, nil
}

// format renders v in the key's canonical form (strconv for ints,
// time.Duration.String for durations); parse round-trips it exactly.
func (d Def) format(v int64) string {
	if d.dur {
		return time.Duration(v).String()
	}
	return strconv.FormatInt(v, 10)
}

// Snapshot is a consistent copy of the whole store at one version.
type Snapshot struct {
	// Version is the store version the values were read at.
	Version uint64
	// Values maps every registered key to its canonical value.
	Values map[string]string
}

// ErrUnknownKey is returned for keys that were never registered.
var ErrUnknownKey = errors.New("config: unknown key")

// Store is a versioned key/value store. All methods are safe for concurrent
// use. Writers (Set, ApplyJSON) hold writer through their setter calls, so
// setters run one at a time in commit order; mu guards the values and is
// never held across a setter, so a setter may read the store (but a setter
// that writes to it deadlocks). Register holds both, so either one guards
// a read of defs.
type Store struct {
	writer  sync.Mutex
	mu      sync.Mutex
	defs    map[string]Def
	vals    map[string]int64
	version uint64
}

// NewStore returns an empty store at version 0.
func NewStore() *Store {
	return &Store{defs: make(map[string]Def), vals: make(map[string]int64)}
}

// Register defines a key. The default must lie within the bounds; it does
// not bump the version or call the setter (the runtime starts from the same
// default). Re-registering a name is an error.
func (s *Store) Register(d Def) error {
	if d.name == "" {
		return errors.New("config: empty key name")
	}
	if _, err := d.parse(d.format(d.def)); err != nil {
		return fmt.Errorf("config: default for %s: %w", d.name, err)
	}
	s.writer.Lock()
	defer s.writer.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.defs[d.name]; dup {
		return fmt.Errorf("config: key %s already registered", d.name)
	}
	s.defs[d.name] = d
	s.vals[d.name] = d.def
	return nil
}

// Set validates raw against key's definition and, if accepted, commits it
// at a fresh version and runs the key's setter before returning. A rejected
// Set changes nothing and calls no setter. It returns the store version
// after the call. A setter error is returned too, but the value stays
// committed: the store already accepted it, and the next Set supersedes.
func (s *Store) Set(key, raw string) (uint64, error) {
	s.writer.Lock()
	defer s.writer.Unlock()
	d, ok := s.defs[key]
	if !ok {
		return s.Version(), fmt.Errorf("%w: %s", ErrUnknownKey, key)
	}
	v, err := d.parse(raw)
	if err != nil {
		return s.Version(), fmt.Errorf("config: set %s: %w", key, err)
	}
	err = s.apply(d, v)
	return s.Version(), err
}

// apply stores v at the next version, then runs the key's setter with mu
// released. Caller holds s.writer, which keeps setter calls in commit order.
func (s *Store) apply(d Def, v int64) error {
	s.mu.Lock()
	s.version++
	s.vals[d.name] = v
	s.mu.Unlock()
	if err := d.set(v); err != nil {
		return fmt.Errorf("config: apply %s: %w", d.name, err)
	}
	return nil
}

// Version returns the store version: the count of accepted Sets.
func (s *Store) Version() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.version
}

// Snapshot returns a consistent copy of every value at one version.
func (s *Store) Snapshot() Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	vals := make(map[string]string, len(s.vals))
	for k, v := range s.vals {
		vals[k] = s.defs[k].format(v)
	}
	return Snapshot{Version: s.version, Values: vals}
}

// Int returns key's value (in nanoseconds for a duration key; 0 for
// unregistered keys).
func (s *Store) Int(key string) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.vals[key]
}

// Duration returns key's value as a time.Duration (0 for unregistered keys).
func (s *Store) Duration(key string) time.Duration {
	return time.Duration(s.Int(key))
}

// ApplyJSON applies a -config file's bytes (file IO and SIGHUP stay in the
// cmd layer): a flat JSON object of key -> value, each a string or a number
// validated from its literal text. It is two-phase: every key is validated
// first — an unknown key or a bad value rejects the whole document with the
// store untouched — then all are committed in sorted key order, one version
// and one setter call each. It returns the version after the last commit,
// and any setter errors joined.
func (s *Store) ApplyJSON(data []byte) (uint64, error) {
	// UseNumber keeps each number's literal text: decoding into float64
	// would reformat 1048576 as "1.048576e+06" and round integers past 2^53.
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	var doc map[string]any
	err := dec.Decode(&doc)
	if _, tail := dec.Token(); err == nil && tail != io.EOF {
		err = errors.New("trailing data after the JSON value")
	}
	s.writer.Lock()
	defer s.writer.Unlock()
	if err != nil {
		return s.Version(), fmt.Errorf("config: parse: %w", err)
	}
	keys := make([]string, 0, len(doc))
	for k := range doc {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	// Phase 1: validate the whole document before touching any value, so a
	// bad reload cannot half-apply.
	vals := make([]int64, len(keys))
	for i, k := range keys {
		d, ok := s.defs[k]
		if !ok {
			return s.Version(), fmt.Errorf("%w: %s", ErrUnknownKey, k)
		}
		var raw string
		switch x := doc[k].(type) {
		case string:
			raw = x
		case json.Number:
			raw = x.String()
		default:
			return s.Version(), fmt.Errorf("config: key %s: value must be a JSON string or number", k)
		}
		if vals[i], err = d.parse(raw); err != nil {
			return s.Version(), fmt.Errorf("config: key %s: %w", k, err)
		}
	}
	// Phase 2: commit in sorted key order, one version per key.
	var errs []error
	for i, k := range keys {
		errs = append(errs, s.apply(s.defs[k], vals[i]))
	}
	return s.Version(), errors.Join(errs...)
}
