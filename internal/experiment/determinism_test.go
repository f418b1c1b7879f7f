package experiment

import (
	"bufio"
	"fmt"
	"hash/fnv"
	"os"
	"runtime"
	"strings"
	"testing"
)

// goldens maps "<kind> <id>" to the FNV-64a hex digest recorded in
// testdata/golden_amd64.txt: the rendered table of every experiment ID
// ("render") and the four metrics streams ("stream") at Seed 5, Trials 2,
// Scale 0.1. Double-run equality only proves a run agrees with itself; the
// goldens prove a refactor left the bytes where they were.
var goldens, goldensErr = loadGoldens()

func loadGoldens() (map[string]string, error) {
	f, err := os.Open("testdata/golden_amd64.txt")
	if err != nil {
		return nil, err
	}
	defer f.Close()
	m := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if i := strings.LastIndexByte(sc.Text(), ' '); i > 0 {
			m[sc.Text()[:i]] = sc.Text()[i+1:]
		}
	}
	return m, sc.Err()
}

// checkGolden compares data's digest with the recorded one for key. Go
// fuses float multiply-adds on some architectures (arm64, ppc64le, s390x)
// but not on amd64, which moves low-order digits, so the comparison only
// runs on the GOARCH the file was recorded on.
func checkGolden(t *testing.T, key string, data []byte) {
	t.Helper()
	if runtime.GOARCH != "amd64" {
		return
	}
	if goldensErr != nil {
		t.Fatalf("golden file: %v", goldensErr)
	}
	h := fnv.New64a()
	h.Write(data)
	got := fmt.Sprintf("%016x", h.Sum64())
	if want := goldens[key]; got != want {
		t.Errorf("golden mismatch: output bytes changed; if intended, record this line in testdata/golden_amd64.txt:\n%s %s\n(recorded: %q)", key, got, want)
	}
}

// renderOf runs one experiment and returns its rendered table — the exact
// bytes a user of cmd/propsim would see, so byte-equality here is the
// strongest reproducibility statement the package makes.
func renderOf(t *testing.T, id string, opt Options) string {
	t.Helper()
	res, err := Run(id, opt)
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	var sb strings.Builder
	res.Render(&sb)
	return sb.String()
}

// TestExperimentsDeterministic is the determinism regression: every
// registered experiment, run twice with identical options, must render
// byte-identical output (trials run in parallel goroutines, so this also
// guards against scheduling-order leaks into results), while a different
// seed must change the output.
func TestExperimentsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("determinism sweep in -short mode")
	}
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			opt := Options{Seed: 5, Trials: 2, Scale: 0.1}
			first := renderOf(t, id, opt)
			second := renderOf(t, id, opt)
			if first != second {
				t.Fatalf("same options rendered differently:\n--- first ---\n%s\n--- second ---\n%s", first, second)
			}
			other := renderOf(t, id, Options{Seed: 6, Trials: 2, Scale: 0.1})
			if first == other {
				t.Errorf("seeds 5 and 6 rendered identically — seed is not reaching the run")
			}
			checkGolden(t, "render "+id, []byte(first))
		})
	}
}
