package chaos

import (
	"math"
	"reflect"
	"strings"
	"testing"
)

// testConfig is the soak shape CI runs: small enough to finish fast, big
// enough that ≥20% of the agents die and recover and a partition window
// opens mid-run.
func testConfig(seed uint64) Config {
	return Config{N: 18, Seed: seed, Steps: 8}
}

// TestChaosSoakDeterministicLog runs seeds 7–16 twice each: every audit
// passes, and log and summary are byte-equal across the two runs.
func TestChaosSoakDeterministicLog(t *testing.T) {
	for seed := uint64(7); seed <= 16; seed++ {
		cfg := testConfig(seed)
		first, err := Run(cfg)
		if err != nil {
			t.Fatalf("seed %d, run 1: %v", seed, err)
		}
		if first.AuditErr != nil {
			t.Fatalf("seed %d, run 1 audit: %v\nlog:\n%s", seed, first.AuditErr, first.Log)
		}
		second, err := Run(cfg)
		if err != nil {
			t.Fatalf("seed %d, run 2: %v", seed, err)
		}
		if first.Log != second.Log || first.Summary != second.Summary {
			t.Fatalf("seed %d: chaos run not byte-deterministic:\n--- run 1 ---\n%s%s\n--- run 2 ---\n%s%s",
				seed, first.Log, first.Summary, second.Log, second.Summary)
		}
		if seed == 7 {
			checkSoak(t, cfg, first)
		}
	}
}

// checkSoak checks one run against the acceptance floor.
func checkSoak(t *testing.T, cfg Config, first *Result) {

	// The acceptance floor: ≥20% of agents killed, all recovered, one
	// partition window executed.
	minKills := (cfg.N*20 + 99) / 100
	if first.Kills < minKills {
		t.Fatalf("only %d/%d agents killed, want >= %d (20%%)", first.Kills, cfg.N, minKills)
	}
	if first.Recovers != first.Kills {
		t.Fatalf("%d kills but %d recovers — schedule must bring every victim back", first.Kills, first.Recovers)
	}
	for _, marker := range []string{"partition-open", "partition-close", "pressure", "final audit ok"} {
		if !strings.Contains(first.Log, marker) {
			t.Fatalf("log lacks %q:\n%s", marker, first.Log)
		}
	}
	if strings.Contains(first.Log, "FAIL") {
		t.Fatalf("log contains a failed audit:\n%s", first.Log)
	}
	t.Logf("chaos summary: %s", first.Summary)
}

func TestChaosSeedsDiverge(t *testing.T) {
	a := buildSchedule(func() Config { c := testConfig(1); c.fill(); return c }())
	b := buildSchedule(func() Config { c := testConfig(2); c.fill(); return c }())
	if reflect.DeepEqual(a, b) {
		t.Fatal("different seeds produced identical schedules")
	}
}

func TestScheduleProperties(t *testing.T) {
	for seed := uint64(0); seed < 20; seed++ {
		cfg := testConfig(seed)
		cfg.fill()
		s := buildSchedule(cfg)

		killStep := map[int]int{}
		recStep := map[int]int{}
		iso := map[int]bool{}
		for _, h := range s.isolated {
			iso[h] = true
		}
		for _, ev := range s.events {
			if ev.step < 1 || ev.step > cfg.Steps {
				t.Fatalf("seed %d: event %+v outside schedule", seed, ev)
			}
			switch ev.kind {
			case "kill":
				if _, dup := killStep[ev.host]; dup {
					t.Fatalf("seed %d: host %d killed twice", seed, ev.host)
				}
				killStep[ev.host] = ev.step
				if iso[ev.host] {
					t.Fatalf("seed %d: host %d both killed and isolated", seed, ev.host)
				}
			case "recover":
				recStep[ev.host] = ev.step
			}
		}
		if len(killStep) != s.kills {
			t.Fatalf("seed %d: %d distinct victims, schedule says %d", seed, len(killStep), s.kills)
		}
		for h, k := range killStep {
			r, ok := recStep[h]
			if !ok {
				t.Fatalf("seed %d: host %d killed but never recovered", seed, h)
			}
			if r <= k {
				t.Fatalf("seed %d: host %d recovers at step %d, killed at %d", seed, h, r, k)
			}
		}
		if len(s.isolated) == 0 {
			t.Fatalf("seed %d: empty partition set", seed)
		}
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{N: 4},
		{Steps: 3},
		{KillFrac: 0.9},
		{KillFrac: math.NaN()},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad config %d validated: %+v", i, cfg)
		}
	}
	good := Config{}
	if err := good.Validate(); err != nil {
		t.Errorf("zero config (all defaults) rejected: %v", err)
	}
}
