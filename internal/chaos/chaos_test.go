package chaos

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/place"
	"repro/internal/proto"
	"repro/internal/repl"
)

// gateBits is the technique label the chaos gates name their subtests by:
// the five technique bits, then "11" for the pipelining and data-path bits
// that tuples carried while those two could be turned off. Both are always
// on now, so the label is a name only — a failure prints the five-bit repro
// tuple — and it keeps each gate's subtests under the names they have always
// had.
func gateBits(t core.Techniques) string { return TechBits(t) + "11" }

// TestChaosConformanceSmoke is the CI chaos gate: 8 sampled technique/policy
// configurations × 4 distinct seeds each (32 seeds total), every run
// conformance-checked against the shadow model at every quiescent point,
// with message faults, crashes, memory-losing crashes, checkpoints, and
// live membership changes on the schedule. Zero divergences allowed; any
// failure prints its one-line repro tuple.
func TestChaosConformanceSmoke(t *testing.T) {
	base := DefaultConfig(0)
	configs := SampleConfigs(base, 8)
	for ci, cfg := range configs {
		cfg := cfg
		seeds := make([]uint64, 4)
		for si := range seeds {
			seeds[si] = uint64(1000 + ci*10 + si)
		}
		t.Run(gateBits(cfg.Techniques)+"-"+policyName(cfg.Policy), func(t *testing.T) {
			t.Parallel()
			for _, seed := range seeds {
				run := cfg
				run.Seed = seed
				rep, err := Run(run)
				if err != nil {
					t.Fatalf("%v\n  repro: hare-chaos -repro %s", err, run.Tuple())
				}
				if rep.Ops == 0 || rep.Events == 0 {
					t.Fatalf("tuple=%s: degenerate run (%d ops, %d events)", run.Tuple(), rep.Ops, rep.Events)
				}
			}
		})
	}
}

// TestPlanDeterminism is the determinism acceptance check: the same
// (seed, config) tuple must produce a byte-identical op trace and fault
// schedule on consecutive derivations, and the tuple printed for a failure
// must reproduce exactly the same plan through the -repro path.
func TestPlanDeterminism(t *testing.T) {
	for _, seed := range []uint64{1, 42, 0xDEAD} {
		cfg := DefaultConfig(seed)
		cfg.Policy = place.PolicyRing
		a := NewPlan(cfg).Encode()
		b := NewPlan(cfg).Encode()
		if !bytes.Equal(a, b) {
			t.Fatalf("seed %d: two consecutive plan derivations differ", seed)
		}

		// Round-trip through the printed tuple, the way -repro rebuilds it.
		s, tech, pol, rmode, err := ParseTuple(cfg.Tuple())
		if err != nil {
			t.Fatal(err)
		}
		c := NewPlan(WithTuple(DefaultConfig(0), s, tech, pol, rmode)).Encode()
		if !bytes.Equal(a, c) {
			t.Fatalf("seed %d: plan rebuilt from tuple %q differs from the original", seed, cfg.Tuple())
		}
	}
}

// TestRunReproducibility runs the same tuple twice end to end: both runs
// must pass conformance and execute the identical trace and schedule.
func TestRunReproducibility(t *testing.T) {
	cfg := DefaultConfig(7)
	first, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	second, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if first.Ops != second.Ops || first.Events != second.Events {
		t.Fatalf("same tuple executed different work: %+v vs %+v", first, second)
	}
}

func TestTupleParsing(t *testing.T) {
	cfg := DefaultConfig(99)
	cfg.Techniques.DirectAccess = false
	cfg.Techniques.DirectoryCache = false
	cfg.Policy = place.PolicyRing
	seed, tech, pol, rmode, err := ParseTuple(cfg.Tuple())
	if err != nil {
		t.Fatal(err)
	}
	if seed != 99 || tech != cfg.Techniques || pol != place.PolicyRing || rmode != repl.Off {
		t.Fatalf("tuple %q parsed to seed=%d tech=%+v pol=%v repl=%v", cfg.Tuple(), seed, tech, pol, rmode)
	}

	// The replicated tuple round-trips its fourth token.
	cfg.Replication = repl.Sync
	if _, _, _, rmode, err = ParseTuple(cfg.Tuple()); err != nil || rmode != repl.Sync {
		t.Fatalf("tuple %q parsed to repl=%v err=%v", cfg.Tuple(), rmode, err)
	}

	for _, bad := range []string{"", "1,2", "x,11111,mod", "1,1111,mod", "1,11112,mod", "1,11111,hash",
		"1,11111,mod,off", "1,11111,mod,quorum", "1,11111,mod,sync,extra", "1,1111111,mod"} {
		if _, _, _, _, err := ParseTuple(bad); err == nil {
			t.Errorf("ParseTuple(%q) accepted garbage", bad)
		}
	}

	// A tuple from when pipelining and the data path had bits of their own is
	// refused with the change named and the five bits to keep.
	_, _, _, _, err = ParseTuple("42,1011011,mod")
	if err == nil || !strings.Contains(err.Error(), "pipelining and data-path bits were removed") || !strings.Contains(err.Error(), `"10110"`) {
		t.Errorf("7-bit tuple: err = %v, want the removed bits named and %q kept", err, "10110")
	}

	// So is a tuple from when replication had an async discipline.
	_, _, _, _, err = ParseTuple("99,00000,mod,async")
	if err == nil || !strings.Contains(err.Error(), "async replication was removed") {
		t.Errorf("async tuple: err = %v, want async's removal named", err)
	}
}

// FuzzParseTuple: any string either fails to parse or names a run whose
// tuple parses back to the same seed, techniques, policy and replication
// mode — what a failing run prints, `hare-chaos -repro` reruns.
func FuzzParseTuple(f *testing.F) {
	for _, s := range []string{"42,11111,mod", "7,10110,ring,sync", "99,00000,mod,async", " 3,11111,ring ",
		"1,1111111,mod", "1,11111,mod,off", "18446744073709551615,01010,ring,sync", "", ",,,"} {
		f.Add(s)
	}
	base := DefaultConfig(0)
	f.Fuzz(func(t *testing.T, s string) {
		seed, tech, pol, rmode, err := ParseTuple(s)
		if err != nil {
			return
		}
		tuple := WithTuple(base, seed, tech, pol, rmode).Tuple()
		seed2, tech2, pol2, rmode2, err := ParseTuple(tuple)
		if err != nil {
			t.Fatalf("%q parsed, but the tuple it names, %q, does not: %v", s, tuple, err)
		}
		if seed2 != seed || tech2 != tech || pol2 != pol || rmode2 != rmode {
			t.Fatalf("%q parsed to %d,%+v,%v,%v; its tuple %q to %d,%+v,%v,%v",
				s, seed, tech, pol, rmode, tuple, seed2, tech2, pol2, rmode2)
		}
	})
}

// TestMatrixShapes checks the sweep constructors cover what they claim.
func TestMatrixShapes(t *testing.T) {
	techs := MatrixTechniques()
	if len(techs) != 32 {
		t.Fatalf("MatrixTechniques: %d combos, want 32 (2^5)", len(techs))
	}
	seen := make(map[string]bool)
	for _, tc := range techs {
		seen[TechBits(tc)] = true
	}
	if len(seen) != 32 {
		t.Fatalf("matrix sweep repeats combinations: %d unique", len(seen))
	}
	full := MatrixConfigs(DefaultConfig(0))
	if len(full) != 64 {
		t.Fatalf("MatrixConfigs: %d, want 64 (32 techniques x 2 policies)", len(full))
	}

	samples := SampleConfigs(DefaultConfig(0), 8)
	policies := map[string]bool{}
	uniq := map[string]bool{}
	for _, c := range samples {
		policies[policyName(c.Policy)] = true
		uniq[c.Tuple()] = true
	}
	if len(policies) != 2 {
		t.Fatal("samples do not cover both placement policies")
	}
	if len(uniq) != len(samples) {
		t.Fatalf("samples repeat configurations: %d unique of %d", len(uniq), len(samples))
	}
}

// TestMatrixRunnerReportsFailures checks the failure path prints a usable
// repro tuple: an impossible config (a run that must error) has to surface
// as a FAIL line carrying its tuple.
func TestMatrixRunnerReportsFailures(t *testing.T) {
	bad := DefaultConfig(5)
	bad.Cores = 1
	bad.Servers = 2 // timeshare cannot run 2 servers on 1 core: core.New fails
	var out bytes.Buffer
	fails := RunMatrix(&out, []Config{bad}, []uint64{5})
	if len(fails) != 1 {
		t.Fatalf("failures = %v, want exactly one", fails)
	}
	if fails[0] != bad.Tuple() {
		t.Fatalf("failure tuple %q, want %q", fails[0], bad.Tuple())
	}
	if !bytes.Contains(out.Bytes(), []byte("repro: hare-chaos -repro "+bad.Tuple())) {
		t.Fatalf("matrix output lacks the repro line:\n%s", out.String())
	}
}

// TestDupOKClassifiesABatchByWhatItCarries: the calls that moved into chains
// stay inside duplicate-delivery coverage, and no chain that mutates gets in.
func TestDupOKClassifiesABatchByWhatItCarries(t *testing.T) {
	batch := func(ops ...proto.Op) []byte {
		subs := make([]*proto.Request, len(ops))
		for i, op := range ops {
			subs[i] = &proto.Request{Op: op, Name: "n", Target: proto.PrevInode}
		}
		return (&proto.Request{Op: proto.OpBatch, Subs: subs, StopOnErr: true}).Marshal()
	}
	for _, tc := range []struct {
		name    string
		kind    uint16
		payload []byte
		want    bool
	}{
		{"bare stat", proto.KindRequest, (&proto.Request{Op: proto.OpStat}).Marshal(), true},
		{"bare unlink", proto.KindRequest, (&proto.Request{Op: proto.OpUnlinkInode}).Marshal(), false},
		{"lookup then stat", proto.KindRequest, batch(proto.OpLookup, proto.OpStat), true},
		{"lookup then open", proto.KindRequest, batch(proto.OpLookup, proto.OpOpenInode), false},
		{"rm_map then unlink", proto.KindRequest, batch(proto.OpRmMap, proto.OpUnlinkInode), false},
		// A create with its first block is a create (a second delivery would
		// answer EEXIST, ECANCELED: server's TestCreateChainCarriesFirstBlock).
		{"bare create", proto.KindRequest, (&proto.Request{Op: proto.OpCreateCoalesced, Name: "n"}).Marshal(), false},
		{"create then extend", proto.KindRequest, batch(proto.OpCreateCoalesced, proto.OpExtend), false},
		{"mknod, open, extend", proto.KindRequest, batch(proto.OpMknod, proto.OpOpenInode, proto.OpExtend), false},
		// A clean close leads the next call's message: it drops a descriptor
		// reference, so what it leads — a bare stat, the stat chain — leaves
		// duplicate-delivery coverage for that one message.
		{"close leads a stat", proto.KindRequest, batch(proto.OpCloseInode, proto.OpStat), false},
		{"close leads lookup then stat", proto.KindRequest, batch(proto.OpCloseInode, proto.OpLookup, proto.OpStat), false},
		{"a reply", proto.KindResponse, batch(proto.OpLookup, proto.OpStat), false},
		{"a batch that does not decode", proto.KindRequest, (&proto.Request{Op: proto.OpBatch, Data: []byte{1, 2, 3}}).Marshal(), false},
		{"bytes that do not decode", proto.KindRequest, []byte{1, 2, 3}, false},
	} {
		if got := dupOK(tc.kind, tc.payload); got != tc.want {
			t.Errorf("%s: dupOK = %v, want %v", tc.name, got, tc.want)
		}
	}
}
