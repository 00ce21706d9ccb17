// Package soak is the distributed live soak harness: it launches a fleet
// of real ringcast-node processes, bootstraps them onto one mesh, drives a
// scenario timeline through each process's fault-injection surface, keeps a
// publish load running across partitions and heals, supervises crashes with
// restart-on-failure, and verifies delivery completeness from per-node
// ledgers. Nothing here is deterministic — the fleet runs on real sockets
// and real clocks — but every node is launched with an explicit -seed so a
// restarted process rejoins the ring under the same identifier, and the
// scenario resolves its arcs over those seeded ring IDs exactly as the
// hop-count simulators do. The completeness gate follows the paper's scope:
// dissemination is one-shot, so a message is only expected at nodes that
// were reachable from the origin when it was published (Section 4's
// connectivity-scoped guarantee); messages published inside a fault
// transition window are measured but not gated.
package soak

import (
	"errors"
	"sort"
	"time"

	"ringcast/internal/scenario"
)

// Defaults for Config fields left zero. Exported so the CLI and tests can
// print and reason about the effective values.
const (
	// DefaultTopic is the one topic a fleet runs when Config.Topics is
	// empty.
	DefaultTopic = "default"
	// DefaultGossipInterval is the per-node gossip cycle handed to
	// ringcast-node via -interval.
	DefaultGossipInterval = 100 * time.Millisecond
	// DefaultStepInterval is the wall-clock length of one scenario step.
	DefaultStepInterval = 2 * time.Second
	// DefaultProbeInterval is the supervisor's health-probe period.
	DefaultProbeInterval = 500 * time.Millisecond
	// DefaultLagWindow is how many consecutive zero-progress probes flag a
	// peer as lagging.
	DefaultLagWindow = 6
	// DefaultPublishRate is the sustained fleet-wide publish rate per second.
	DefaultPublishRate = 25
	// DefaultDuration is the publish phase length.
	DefaultDuration = 12 * time.Second
	// DefaultGuard is the transition guard: publishes within this window of
	// a scenario event or a membership change are not completeness-gated.
	DefaultGuard = 1500 * time.Millisecond
	// DefaultReadyTimeout bounds the initial mesh-formation barrier.
	DefaultReadyTimeout = 90 * time.Second
	// DefaultDrainTimeout bounds the post-publish settle phase.
	DefaultDrainTimeout = 20 * time.Second
	// DefaultCrashLoopMax is the number of crashes inside CrashLoopWindow
	// after which the supervisor gives up on a process.
	DefaultCrashLoopMax = 5
	// DefaultCrashLoopWindow is the sliding window for crash-loop detection.
	DefaultCrashLoopWindow = 30 * time.Second
)

// Config parameterizes one soak run.
type Config struct {
	// N is the fleet size (number of ringcast-node processes).
	N int
	// Topics lists the pub/sub topics every node subscribes to. Empty means
	// the one topic DefaultTopic.
	Topics []string
	// Scenario is the fault timeline; its step counter advances once per
	// StepInterval. A zero-value scenario runs fault-free.
	Scenario scenario.Scenario
	// NodeBin is the path to a built ringcast-node binary.
	NodeBin string
	// Host is the interface the fleet binds; defaults to 127.0.0.1. A
	// multi-machine plan substitutes addressable hosts here.
	Host string
	// LogDir, when non-empty, receives one stdout/stderr log per process.
	LogDir string

	// GossipInterval, StepInterval, ProbeInterval, Duration, Guard,
	// ReadyTimeout and DrainTimeout default as documented on the package
	// constants when zero.
	GossipInterval time.Duration
	StepInterval   time.Duration
	ProbeInterval  time.Duration
	Duration       time.Duration
	Guard          time.Duration
	ReadyTimeout   time.Duration
	DrainTimeout   time.Duration

	// PublishRate is messages per second across the whole fleet.
	PublishRate int
	// LagWindow is the number of consecutive zero-progress probes (while
	// the fleet kept publishing) that flag a peer as lagging.
	LagWindow int
	// CrashLoopMax crashes inside CrashLoopWindow abandon the process.
	CrashLoopMax    int
	CrashLoopWindow time.Duration

	// Fanout is the dissemination fanout F handed to every node.
	Fanout int
	// Seed offsets every node's deterministic identity seed, so two runs
	// with the same Seed build the same ring.
	Seed int64

	// WedgeAfter, when positive, wedges one live process's delivery path
	// (a deliberately stuck consumer) that long into the publish phase, and
	// unwedges it WedgeFor later — the lag detector must flag it.
	WedgeAfter time.Duration
	WedgeFor   time.Duration
}

// withDefaults fills zero fields and validates the result.
func (c Config) withDefaults() (Config, error) {
	if c.N < 2 {
		return c, errors.New("soak: need at least 2 nodes")
	}
	if c.NodeBin == "" {
		return c, errors.New("soak: NodeBin is required")
	}
	if c.Host == "" {
		c.Host = "127.0.0.1"
	}
	if c.GossipInterval <= 0 {
		c.GossipInterval = DefaultGossipInterval
	}
	if c.StepInterval <= 0 {
		c.StepInterval = DefaultStepInterval
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = DefaultProbeInterval
	}
	if c.Duration <= 0 {
		c.Duration = DefaultDuration
	}
	if c.Guard <= 0 {
		c.Guard = DefaultGuard
	}
	if c.ReadyTimeout <= 0 {
		c.ReadyTimeout = DefaultReadyTimeout
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = DefaultDrainTimeout
	}
	if c.PublishRate <= 0 {
		c.PublishRate = DefaultPublishRate
	}
	if c.LagWindow <= 0 {
		c.LagWindow = DefaultLagWindow
	}
	if c.CrashLoopMax <= 0 {
		c.CrashLoopMax = DefaultCrashLoopMax
	}
	if c.CrashLoopWindow <= 0 {
		c.CrashLoopWindow = DefaultCrashLoopWindow
	}
	if c.Fanout <= 0 {
		c.Fanout = 3
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.WedgeAfter > 0 && c.WedgeFor <= 0 {
		c.WedgeFor = 4 * time.Second
	}
	// The first topic in sorted order anchors the ring IDs the scenario
	// resolves arcs over (ringcast-node sorts its -topics the same way),
	// so pin the order here once.
	if len(c.Topics) == 0 {
		c.Topics = []string{DefaultTopic}
	}
	c.Topics = append([]string(nil), c.Topics...)
	sort.Strings(c.Topics)
	return c, nil
}
