package core

// The swap transaction's table (txn.go): every input in every phase.

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"unsafe"
)

// txnInputs are Txn's inputs by name, each with the current cycle and
// version or a stale one; each returns its answer, rendered.
var txnInputs = map[string]func(t *Txn) string{
	"Open": func(t *Txn) string {
		c, ok := t.Open()
		return fmt.Sprint(c, ok)
	},
	"Reported":                func(t *Txn) string { return fmt.Sprint(t.Reported(uint32(t.cycle))) },
	"Reported(stale)":         func(t *Txn) string { return fmt.Sprint(t.Reported(uint32(t.cycle) - 1)) },
	"Propose":                 func(t *Txn) string { return fmt.Sprint(t.Propose(uint32(t.cycle))) },
	"Propose(stale)":          func(t *Txn) string { return fmt.Sprint(t.Propose(uint32(t.cycle) - 1)) },
	"Prepare":                 func(t *Txn) string { return fmt.Sprint(t.Prepare(t.ver)) },
	"Prepare(stale)":          func(t *Txn) string { return fmt.Sprint(t.Prepare(t.ver - 1)) },
	"Acked":                   func(t *Txn) string { return fmt.Sprint(t.Acked(uint32(t.cycle))) },
	"Acked(stale)":            func(t *Txn) string { return fmt.Sprint(t.Acked(uint32(t.cycle) - 1)) },
	"WalkTimedOut":            func(t *Txn) string { return fmt.Sprint(t.WalkTimedOut(uint32(t.cycle))) },
	"WalkTimedOut(stale)":     func(t *Txn) string { return fmt.Sprint(t.WalkTimedOut(uint32(t.cycle) - 1)) },
	"ProposalTimedOut":        func(t *Txn) string { return fmt.Sprint(t.ProposalTimedOut(uint32(t.cycle))) },
	"ProposalTimedOut(stale)": func(t *Txn) string { return fmt.Sprint(t.ProposalTimedOut(uint32(t.cycle) - 1)) },
	"Crash":                   func(t *Txn) string { t.Crash(); return "" },
}

// txnAt returns a Txn at cycle 2 (so cycle 1 is stale) with version 1 (so
// 0 is stale), in phase p.
func txnAt(p txnPhase) Txn {
	return Txn{ver: 1, cycle: 2, phase: p}
}

func (p txnPhase) String() string {
	return [...]string{"idle", "walking", "proposing"}[p]
}

func (a Answer) String() string {
	return [...]string{"Ignored", "Stale", "Taken"}[a]
}

// TestTxnTransitions tables every input in every phase: the answer and
// the state it leaves. An input the table does not list for a phase is
// refused — false, or Ignored — and changes nothing.
func TestTxnTransitions(t *testing.T) {
	type want struct {
		answer string
		after  Txn
	}
	table := map[txnPhase]map[string]want{
		txnIdle: {
			"Open":            {"3 true", Txn{ver: 1, cycle: 3, phase: txnWalking}},
			"Propose":         {"true", txnAt(txnProposing)},
			"Prepare":         {"true", Txn{ver: 2, cycle: 2, phase: txnIdle}},
			"Crash":           {"", txnAt(txnIdle)},
			"Reported":        {"Ignored", txnAt(txnIdle)},
			"Reported(stale)": {"Ignored", txnAt(txnIdle)},
		},
		txnWalking: {
			"Open":             {"0 false", txnAt(txnWalking)},
			"Reported":         {"Taken", txnAt(txnIdle)},
			"Reported(stale)":  {"Stale", txnAt(txnWalking)},
			"Prepare":          {"true", Txn{ver: 2, cycle: 2, phase: txnWalking}},
			"WalkTimedOut":     {"true", txnAt(txnIdle)},
			"Crash":            {"", txnAt(txnIdle)},
			"ProposalTimedOut": {"false", txnAt(txnWalking)},
		},
		txnProposing: {
			"Open":             {"0 false", txnAt(txnProposing)},
			"Reported":         {"Ignored", txnAt(txnProposing)},
			"Reported(stale)":  {"Ignored", txnAt(txnProposing)},
			"Acked":            {"true", Txn{ver: 2, cycle: 2, phase: txnIdle}},
			"ProposalTimedOut": {"true", txnAt(txnIdle)},
			"Crash":            {"", txnAt(txnIdle)},
		},
	}
	for _, p := range []txnPhase{txnIdle, txnWalking, txnProposing} {
		for name, in := range txnInputs {
			w, listed := table[p][name]
			if !listed {
				w = want{"false", txnAt(p)}
			}
			tx := txnAt(p)
			if got := in(&tx); got != w.answer || tx != w.after {
				t.Errorf("%v: %s = %q leaving %+v, want %q leaving %+v", p, name, got, tx, w.answer, w.after)
			}
		}
	}
}

// TestTxnSecondProposalRefused: the acceptor takes a proposal for its
// version once; the duplicate names the version it moved past.
func TestTxnSecondProposalRefused(t *testing.T) {
	var acc Txn
	v := acc.Version()
	if !acc.Prepare(v) {
		t.Fatal("first proposal refused")
	}
	if acc.Prepare(v) {
		t.Fatal("second proposal for an accepted version accepted")
	}
	if acc.Version() != v+1 {
		t.Fatalf("version %d after one swap, want %d", acc.Version(), v+1)
	}
}

// TestTxnRandomInputs feeds a long random sequence of inputs, current and
// stale: the version never falls, a walk or proposal leaves its phase only
// through its own completion, timeout or a crash, and Open numbers cycles
// consecutively.
func TestTxnRandomInputs(t *testing.T) {
	var names []string
	for name := range txnInputs {
		names = append(names, name)
	}
	slices.Sort(names) // a reproducible sequence
	r := rand.New(rand.NewSource(1))
	var tx Txn
	leave := map[txnPhase][]string{
		txnWalking:   {"Reported", "WalkTimedOut", "Crash"},
		txnProposing: {"Acked", "ProposalTimedOut", "Crash"},
	}
	for i := 0; i < 100000; i++ {
		name := names[r.Intn(len(names))]
		before := tx
		got := txnInputs[name](&tx)
		if tx.ver < before.ver {
			t.Fatalf("step %d %s: version fell %d → %d", i, name, before.ver, tx.ver)
		}
		if before.phase != txnIdle && tx.phase != before.phase && !slices.Contains(leave[before.phase], name) {
			t.Fatalf("step %d %s: left %v for %v", i, name, before.phase, tx.phase)
		}
		opened := got == fmt.Sprint(uint32(before.cycle+1), true)
		if name == "Open" && opened != (before.phase == txnIdle) {
			t.Fatalf("step %d: Open from %+v answered %s", i, before, got)
		}
	}
}

// TestTxnSize pins the per-peer footprints: the Txn the sharded engine
// budgets, Protocol's nodeState, which carries one inside its Cycle and
// must stay in the 96 B size class (DESIGN.md §3: crossing it cost 5–7.6 %
// live heap), and the neighborQ entry, which carries the remembered RTT
// (32 B cost chord-faults 13 % live heap).
func TestTxnSize(t *testing.T) {
	if s := unsafe.Sizeof(Txn{}); s != 8 {
		t.Fatalf("Txn is %d bytes, want 8", s)
	}
	if s := unsafe.Sizeof(nodeState{}); s > 96 {
		t.Fatalf("nodeState is %d bytes, want <= 96", s)
	}
	if s := unsafe.Sizeof(QueueEntry{}); s > 24 {
		t.Fatalf("QueueEntry is %d bytes, want <= 24", s)
	}
}
