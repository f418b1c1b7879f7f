package netsim_test

import (
	"fmt"

	"repro/internal/netsim"
	"repro/internal/rng"
)

// Example builds the paper's ts-large physical network and asks the oracle
// for a latency.
func Example() {
	net, err := netsim.Generate(netsim.TSLarge(), rng.New(1))
	if err != nil {
		panic(err)
	}
	oracle := netsim.NewOracle(net)
	a, b := net.StubHosts[0], net.StubHosts[len(net.StubHosts)-1]
	fmt.Printf("hosts: %d\n", len(net.StubHosts))
	fmt.Printf("connected: %v\n", net.Graph.Frozen().Connected())
	fmt.Printf("symmetric: %v\n", oracle.Latency(a, b) == oracle.Latency(b, a))
	// Output:
	// hosts: 2400
	// connected: true
	// symmetric: true
}
