package experiment_test

import (
	"fmt"
	"io"

	"repro/internal/experiment"
)

// Example runs one reproduction experiment at miniature scale and exports
// it — the programmatic equivalent of `propsim -exp ablation -format csv`.
func Example() {
	res, err := experiment.Run("ablation", experiment.Options{Seed: 1, Trials: 1, Scale: 0.12})
	if err != nil {
		panic(err)
	}
	if err := res.WriteCSV(io.Discard); err != nil {
		panic(err)
	}
	fmt.Println(res.ID, len(res.Series) > 0)
	// Output:
	// ablation true
}

// ExampleIDs lists the experiment table.
func ExampleIDs() {
	fmt.Println(len(experiment.IDs()) >= 18)
	fmt.Println(experiment.Describe("fig7") != "")
	// Output:
	// true
	// true
}
