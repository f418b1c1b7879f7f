package metrics

import (
	"testing"

	"repro/internal/overlay"
	"repro/internal/rng"
)

// The PR-7 acceptance benchmark pair: maintaining AverageLatency across one
// PROP-O-style exchange on a 4096-slot overlay, incrementally
// (ALTracker.Update) versus the pre-PR7 behavior (full exact reflood).

// alBenchState is a 4096-slot ring-plus-chords overlay with the chord list
// tracked so rewires never break the ring (the exact baseline refuses
// disconnected overlays).
type alBenchState struct {
	o      *overlay.Overlay
	n      int
	chords [][2]int
	r      *rng.Rand
}

func alBenchSetup(b *testing.B, n int) *alBenchState {
	b.Helper()
	hosts := make([]int, n)
	for i := range hosts {
		hosts[i] = 3*i + 1
	}
	o, err := overlay.New(hosts, alHashLat)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := o.AddEdge(i, (i+1)%n); err != nil {
			b.Fatal(err)
		}
	}
	s := &alBenchState{o: o, n: n, r: rng.New(5)}
	for len(s.chords) < 2*n { // average degree ~6
		u, v := s.r.Intn(n), s.r.Intn(n)
		if u != v && !o.Logical.HasEdge(u, v) {
			if err := o.AddEdge(u, v); err != nil {
				b.Fatal(err)
			}
			s.chords = append(s.chords, [2]int{u, v})
		}
	}
	return s
}

// rewire replaces one random chord with a fresh random link — the logical
// footprint of one PROP-O neighbor exchange.
func (s *alBenchState) rewire() {
	i := s.r.Intn(len(s.chords))
	c := s.chords[i]
	s.o.RemoveEdge(c[0], c[1])
	for {
		u, v := s.r.Intn(s.n), s.r.Intn(s.n)
		if u != v && !s.o.Logical.HasEdge(u, v) {
			if err := s.o.AddEdge(u, v); err != nil {
				panic(err)
			}
			s.chords[i] = [2]int{u, v}
			return
		}
	}
}

// BenchmarkALTrackerUpdateExchange4096 measures one exchange plus the
// incremental AL update.
func BenchmarkALTrackerUpdateExchange4096(b *testing.B) {
	s := alBenchSetup(b, 4096)
	tr, err := NewALTracker(s.o, nil, ALTrackerOptions{})
	if err != nil {
		b.Fatal(err)
	}
	defer tr.Detach()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.rewire()
		st := tr.Update()
		if st.FullReflood {
			b.Fatalf("incremental bench fell back to full reflood: %+v", st)
		}
	}
}

// BenchmarkALExactRefloodExchange4096 is the pre-PR7 baseline: the same
// exchange followed by a full exact AverageLatency evaluation.
func BenchmarkALExactRefloodExchange4096(b *testing.B) {
	s := alBenchSetup(b, 4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.rewire()
		if _, err := AverageLatency(s.o, nil); err != nil {
			b.Fatal(err)
		}
	}
}
