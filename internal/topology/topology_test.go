package topology

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/graph"
	"repro/internal/rng"
)

func lat(a, b int) float64 { return math.Abs(float64(a - b)) }

func hostsN(n int) []int {
	hosts := make([]int, n)
	for i := range hosts {
		hosts[i] = i * 2
	}
	return hosts
}

func TestKindsCovered(t *testing.T) {
	if len(Kinds()) != 4 {
		t.Fatalf("Kinds = %v", Kinds())
	}
	sizes := map[Kind]int{Ring: 12, Hypercube: 16, Tree: 15, Torus: 16}
	for _, k := range Kinds() {
		o, err := Build(k, hostsN(sizes[k]), lat)
		if err != nil {
			t.Fatalf("%s: %v", k, err)
		}
		if !o.Connected() {
			t.Errorf("%s not connected", k)
		}
		want, err := ExpectedEdges(k, sizes[k])
		if err != nil {
			t.Fatal(err)
		}
		if got := o.Logical.NumEdges(); got != want {
			t.Errorf("%s: %d edges, want %d", k, got, want)
		}
	}
	if _, err := Build(Kind("mobius"), hostsN(8), lat); err == nil {
		t.Error("unknown kind accepted")
	}
	if _, err := ExpectedEdges(Kind("mobius"), 8); err == nil {
		t.Error("unknown kind accepted by ExpectedEdges")
	}
}

func TestRingStructure(t *testing.T) {
	o, err := Build(Ring, hostsN(10), lat)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 10; s++ {
		if o.Degree(s) != 2 {
			t.Fatalf("ring degree of %d = %d", s, o.Degree(s))
		}
	}
	if _, err := Build(Ring, hostsN(2), lat); err == nil {
		t.Error("2-node ring accepted")
	}
}

func TestHypercubeStructure(t *testing.T) {
	o, err := Build(Hypercube, hostsN(16), lat)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 16; s++ {
		if o.Degree(s) != 4 {
			t.Fatalf("hypercube degree of %d = %d, want 4", s, o.Degree(s))
		}
	}
	// Neighbors differ in exactly one bit.
	for s := 0; s < 16; s++ {
		for _, nb := range o.Neighbors(s) {
			x := s ^ nb
			if x&(x-1) != 0 {
				t.Fatalf("hypercube edge %d-%d differs in multiple bits", s, nb)
			}
		}
	}
	if _, err := Build(Hypercube, hostsN(12), lat); err == nil {
		t.Error("non-power-of-two hypercube accepted")
	}
}

func TestTreeStructure(t *testing.T) {
	o, err := Build(Tree, hostsN(15), lat)
	if err != nil {
		t.Fatal(err)
	}
	// Root has 2 children; internal nodes degree 3; leaves degree 1.
	if o.Degree(0) != 2 {
		t.Fatalf("root degree = %d", o.Degree(0))
	}
	leaves := 0
	for s := 0; s < 15; s++ {
		if o.Degree(s) == 1 {
			leaves++
		}
	}
	if leaves != 8 {
		t.Fatalf("leaves = %d, want 8", leaves)
	}
	if _, err := Build(Tree, hostsN(1), lat); err == nil {
		t.Error("singleton tree accepted")
	}
}

func TestTorusStructure(t *testing.T) {
	o, err := Build(Torus, hostsN(25), lat)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 25; s++ {
		if o.Degree(s) != 4 {
			t.Fatalf("torus degree of %d = %d, want 4", s, o.Degree(s))
		}
	}
	for _, n := range []int{24, 4, 10} {
		if _, err := Build(Torus, hostsN(n), lat); err == nil {
			t.Errorf("torus with %d nodes accepted", n)
		}
	}
}

// TestPROPGPreservesEveryShape is the executable form of the §4.1 claim:
// run PROP-G on each named geometry and verify the logical structure is
// bit-identical afterwards while the mapping improved (or at least never
// regressed).
func TestPROPGPreservesEveryShape(t *testing.T) {
	sizes := map[Kind]int{Ring: 64, Hypercube: 64, Tree: 63, Torus: 64}
	for _, kind := range Kinds() {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			r := rng.New(7)
			hosts := r.Perm(1000)[:sizes[kind]]
			o, err := Build(kind, hosts, lat)
			if err != nil {
				t.Fatal(err)
			}
			edgesBefore := o.Logical.Edges()
			latBefore := o.MeanLinkLatency()
			p, err := core.New(o, core.DefaultConfig(core.PROPG), r.Split())
			if err != nil {
				t.Fatal(err)
			}
			e := event.New()
			p.Start(e)
			e.RunUntil(30 * 60000)
			edgesAfter := o.Logical.Edges()
			if len(edgesBefore) != len(edgesAfter) {
				t.Fatalf("edge count changed: %d -> %d", len(edgesBefore), len(edgesAfter))
			}
			for i := range edgesBefore {
				if edgesBefore[i] != edgesAfter[i] {
					t.Fatalf("edge %d changed", i)
				}
			}
			if o.MeanLinkLatency() > latBefore {
				t.Fatalf("latency regressed: %.1f -> %.1f", latBefore, o.MeanLinkLatency())
			}
			if p.Counters.Exchanges == 0 {
				t.Fatalf("no exchanges on %s", kind)
			}
			if !o.Connected() {
				t.Fatal("disconnected")
			}
		})
	}
}

// TestIdentitySwapIsomorphism: swapping hosts of two slots yields a graph
// trivially isomorphic to the original under the identity map (the graph
// never changed), for every geometry — a direct check of Theorem 2's
// mechanics in the slot model.
func TestIdentitySwapIsomorphism(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		o, err := Build(Hypercube, hostsN(32), lat)
		if err != nil {
			return false
		}
		before := o.Logical.Clone()
		for i := 0; i < 20; i++ {
			u, v := r.Intn(32), r.Intn(32)
			if u != v {
				if err := o.SwapHosts(u, v); err != nil {
					return false
				}
			}
		}
		phi := make([]int, 32)
		for i := range phi {
			phi[i] = i
		}
		return graph.IsomorphicUnderMapping(before, o.Logical, phi) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
