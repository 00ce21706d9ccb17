package soak

// Pure unit tests for the schedule-derived completeness gate: no sockets,
// no processes, just the projection of a scenario timeline onto gating
// windows.

import (
	"testing"
	"time"

	"ringcast/internal/scenario"
)

func TestGatePlanWindows(t *testing.T) {
	cfg := Config{
		N:       4,
		NodeBin: "unused",
		Topics:  []string{"beta", "alpha"}, // withDefaults sorts → alpha first
		Scenario: scenario.Scenario{
			Name: "gate-plan",
			Events: []scenario.Event{
				{Kind: scenario.KindLoss, At: 6, Rate: 0.3},
				{Kind: scenario.KindPartition, At: 1, Groups: 2},
				{Kind: scenario.KindHeal, At: 3},
				{Kind: scenario.KindLoss, At: 8, Rate: 0},
				{Kind: scenario.KindFlashCrowd, At: 2}, // network phase: ignored
			},
		},
		StepInterval: time.Second,
		Guard:        100 * time.Millisecond,
	}
	cfg, err := cfg.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Topics[0] != "alpha" {
		t.Fatalf("withDefaults did not sort topics: %v", cfg.Topics)
	}
	start := time.Unix(1000, 0)
	p := newGatePlan(cfg, start)

	if p.arcTopic != "alpha" {
		t.Errorf("arcTopic = %q", p.arcTopic)
	}
	if len(p.fires) != 4 {
		t.Errorf("fires = %d, want 4 (flash crowd excluded)", len(p.fires))
	}
	if len(p.parts) != 1 || !p.parts[0].from.Equal(start.Add(1*time.Second)) || !p.parts[0].to.Equal(start.Add(3*time.Second)) {
		t.Errorf("partition spans = %+v", p.parts)
	}
	if len(p.loss) != 1 || !p.loss[0].from.Equal(start.Add(6*time.Second)) || !p.loss[0].to.Equal(start.Add(8*time.Second)) {
		t.Errorf("loss spans = %+v", p.loss)
	}

	at := func(ms int) time.Time { return start.Add(time.Duration(ms) * time.Millisecond) }
	cases := []struct {
		name  string
		topic string
		t     time.Time
		want  bool
	}{
		{"pre-scenario calm", "alpha", at(500), true},
		{"near partition fire", "alpha", at(950), false},
		{"arc topic mid-partition", "alpha", at(2000), true},
		{"secondary topic mid-partition", "beta", at(2000), false},
		{"secondary topic after heal+guard", "beta", at(3500), true},
		{"inside loss window (any topic)", "alpha", at(7000), false},
		{"after loss cleared", "beta", at(9500), true},
		{"near heal fire", "alpha", at(3050), false},
	}
	for _, tc := range cases {
		if got := p.gate(tc.topic, tc.t); got != tc.want {
			t.Errorf("%s: gate(%q, +%s) = %v, want %v", tc.name, tc.topic, tc.t.Sub(start), got, tc.want)
		}
	}
}

func TestGatePlanOpenEndedPartition(t *testing.T) {
	cfg := Config{
		N:       2,
		NodeBin: "unused",
		Scenario: scenario.Scenario{
			Name:   "never-heals",
			Events: []scenario.Event{{Kind: scenario.KindPartition, At: 1, Groups: 2}},
		},
		StepInterval: time.Second,
		Guard:        100 * time.Millisecond,
	}
	cfg, err := cfg.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	start := time.Unix(2000, 0)
	p := newGatePlan(cfg, start)
	// A one-topic fleet runs DefaultTopic, which IS the arc topic, so the
	// partition windows never apply; only the fire guard does.
	if !p.gate(DefaultTopic, start.Add(10*time.Second)) {
		t.Error("arc topic gated by open partition")
	}
	// A hypothetical second topic stays ungated forever: the span never
	// closes.
	if p.gate("other", start.Add(time.Hour)) {
		t.Error("secondary topic gated inside open-ended partition")
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := (Config{N: 1, NodeBin: "x"}).withDefaults(); err == nil {
		t.Error("N=1 accepted")
	}
	if _, err := (Config{N: 2}).withDefaults(); err == nil {
		t.Error("missing NodeBin accepted")
	}
	cfg, err := (Config{N: 2, NodeBin: "x"}).withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Duration != DefaultDuration || cfg.PublishRate != DefaultPublishRate || cfg.Host != "127.0.0.1" {
		t.Errorf("defaults not applied: %+v", cfg)
	}
	if got := cfg.Topics; len(got) != 1 || got[0] != DefaultTopic {
		t.Errorf("Topics = %v, want [%s]", got, DefaultTopic)
	}
}
