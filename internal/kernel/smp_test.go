package kernel

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"livelock/internal/cpu"
	"livelock/internal/prov"
	"livelock/internal/sim"
	"livelock/internal/workload"
)

// smpModes are the kernel configurations the SMP suite sweeps — the
// same four arms as TestPacketConservation.
var smpModes = []struct {
	name string
	cfg  Config
}{
	{"unmodified", Config{Mode: ModeUnmodified}},
	{"unmodified-screend", Config{Mode: ModeUnmodified, Screend: true}},
	{"polled-compat", Config{Mode: ModePolledCompat, Quota: 5}},
	{"polled-feedback", Config{Mode: ModePolled, Quota: 10, Screend: true, Feedback: true}},
}

// timelineCSV runs a short instrumented trial and returns its CSV bytes.
func timelineCSV(t *testing.T, cfg Config) []byte {
	t.Helper()
	res := mustTimeline(t, cfg, 6000, TimelineOptions{RunFor: 300 * sim.Millisecond})
	var buf bytes.Buffer
	if err := res.Series.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// timelineDigestPath holds the SHA-256 of every timeline the digest
// tests below render, keyed "mode/cpusN/scenario". The table was
// generated while the uniprocessor and SMP kernels were still separate
// code, so it pins that merging them changed no output at any core
// count. When a change is supposed to move timelines, regenerate with
//
//	REGEN_TIMELINE_DIGESTS=1 go test -run 'TestUniprocessorEquivalence|TestSMPTimelineDigests' ./internal/kernel
//
// and commit the updated JSON alongside the change, mirroring
// REGEN_GOLDEN in the root package.
const timelineDigestPath = "testdata/timeline-digests.json"

// checkTimelineDigests renders the timeline of every smpModes arm under
// every fault scenario at n CPUs and compares its SHA-256 against the
// pinned table (or, under REGEN_TIMELINE_DIGESTS, records it). check,
// when non-nil, inspects each CSV as well.
func checkTimelineDigests(t *testing.T, n int, sub func(mode, sc string) string, check func(t *testing.T, csv []byte)) {
	t.Helper()
	regen := os.Getenv("REGEN_TIMELINE_DIGESTS") != ""
	want := map[string]string{}
	if blob, err := os.ReadFile(timelineDigestPath); err == nil {
		if err := json.Unmarshal(blob, &want); err != nil {
			t.Fatalf("corrupt %s: %v", timelineDigestPath, err)
		}
	} else if !regen {
		t.Fatalf("missing timeline digests (run with REGEN_TIMELINE_DIGESTS=1): %v", err)
	}
	for _, m := range smpModes {
		for _, sc := range faultScenarios {
			key := fmt.Sprintf("%s/cpus%d/%s", m.name, n, sc.name)
			t.Run(sub(m.name, sc.name), func(t *testing.T) {
				cfg := m.cfg
				cfg.Seed = 7
				cfg.Fault = sc.cfg
				cfg.CPUs = n
				csv := timelineCSV(t, cfg)
				if check != nil {
					check(t, csv)
				}
				sum := sha256.Sum256(csv)
				got := hex.EncodeToString(sum[:])
				if regen {
					want[key] = got
					return
				}
				if want[key] != got {
					t.Fatalf("%s timeline digest %s, pinned %s", key, got, want[key])
				}
			})
		}
	}
	if regen {
		blob, err := json.MarshalIndent(want, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(timelineDigestPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(timelineDigestPath, append(blob, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestUniprocessorEquivalence pins the N=1 contract (DESIGN.md §11):
// at CPUs == 1 every kernel mode, clean and under faults, renders the
// timeline pinned in testdata/timeline-digests.json byte for byte, and
// its schema contains none of the SMP-only columns (per-core CPUs,
// locks). The committed golden figure digests
// (testdata/golden-figures.json) pin the same property across the
// whole figure suite.
func TestUniprocessorEquivalence(t *testing.T) {
	sub := func(mode, sc string) string { return mode + "/" + sc }
	checkTimelineDigests(t, 1, sub, func(t *testing.T, csv []byte) {
		// No SMP-only columns may appear: per-core CPU blocks
		// ("cpu1."...) or FairLock stats ("lock.ipintrq."...). Note
		// cpu.center.lock.util legitimately exists at any core count
		// (the CenterLock column is zero here), so match column
		// prefixes, not substrings.
		header := string(csv[:bytes.IndexByte(csv, '\n')])
		for _, col := range strings.Split(header, ",") {
			if strings.HasPrefix(col, "cpu1.") || strings.HasPrefix(col, "lock.") {
				t.Fatalf("uniprocessor timeline leaked SMP column %q", col)
			}
		}
	})
}

// TestSMPTimelineDigests holds every kernel mode's timeline at 2 and 4
// CPUs, clean and under faults, to the pinned digest table.
func TestSMPTimelineDigests(t *testing.T) {
	for _, n := range []int{2, 4} {
		sub := func(mode, sc string) string { return fmt.Sprintf("%s/cpus%d/%s", mode, n, sc) }
		checkTimelineDigests(t, n, sub, nil)
	}
}

// TestSMPCycleConservation extends TestCycleConservation across core
// counts: at N ∈ {2, 4}, clean and under every fault scenario, the
// packet ledger must balance globally and the cycle ledger must balance
// on every core — Σ per-core centers == that core's busy time, busy +
// idle == elapsed (cpu.AuditCycles per core, and Router.AuditCycles for
// the whole complex).
func TestSMPCycleConservation(t *testing.T) {
	for _, m := range smpModes {
		for _, n := range []int{2, 4} {
			for _, sc := range faultScenarios {
				t.Run(fmt.Sprintf("%s/cpus%d/%s", m.name, n, sc.name), func(t *testing.T) {
					cfg := m.cfg
					cfg.Seed = 7
					cfg.Fault = sc.cfg
					cfg.CPUs = n
					eng := sim.NewEngine()
					r := NewRouter(eng, cfg)
					gen := r.AttachGenerator(0, workload.ConstantRate{Rate: 6000, JitterFrac: 0.05}, 0)
					gen.Start()
					eng.Run(sim.Time(sim.Second))
					gen.Stop()
					eng.RunFor(500 * sim.Millisecond) // drain
					if gen.Sent.Value() == 0 {
						t.Fatal("generator sent nothing")
					}
					if r.Delivered() == 0 {
						t.Fatal("nothing delivered")
					}
					if err := r.Audit(gen.Sent.Value()); err != nil {
						t.Fatalf("packet ledger unbalanced: %v\n%+v", err, r.Account())
					}
					if err := r.AuditCycles(); err != nil {
						t.Fatalf("cycle ledger unbalanced: %v", err)
					}
					// The same invariant, asserted core by core so a future
					// aggregate-only AuditCycles cannot silently weaken it.
					if r.Sys.N() != n {
						t.Fatalf("system has %d cores, want %d", r.Sys.N(), n)
					}
					now := eng.Now()
					for i := 0; i < r.Sys.N(); i++ {
						if err := r.Sys.CPU(i).AuditCycles(now); err != nil {
							t.Fatalf("cpu%d ledger unbalanced: %v", i, err)
						}
					}
					// The SMP machinery must actually have engaged: shared
					// queues were touched under their locks.
					ipq, net := r.Locks()
					if net.Acquisitions() == 0 {
						t.Fatal("net lock never acquired — SMP path not exercised")
					}
					if cfg.Mode != ModePolled && ipq.Acquisitions() == 0 {
						t.Fatal("ipintrq lock never acquired — SMP path not exercised")
					}
					// Work must have spread beyond the boot CPU.
					var busyElsewhere sim.Duration
					for i := 1; i < r.Sys.N(); i++ {
						busyElsewhere += r.Sys.CPU(i).BusyTime()
					}
					if busyElsewhere == 0 {
						t.Fatal("no work ran off the boot CPU")
					}
					// Spin time, if any, is charged to the lock center.
					var lockCenter sim.Duration
					r.VisitCPUs(func(c *cpu.CPU) { lockCenter += c.CenterTime(prov.CenterLock) })
					if spin := ipq.SpinTime() + net.SpinTime(); spin != lockCenter {
						t.Fatalf("lock spin %v != CenterLock time %v", spin, lockCenter)
					}
				})
			}
		}
	}
}

// TestSMPChargesConfiguredCostsBelowLockOp pins the split rule's clamp
// (cpu.Task.PostLockedTail): a lock hold is carved out of a per-packet
// cost, never added to it, even when the configured cost is below one
// LockOp. At 2 CPUs with every dispatch and wakeup cost zeroed, each
// packet's cost center must carry exactly the configured per-packet
// cost — lock spin goes to CenterLock alone.
func TestSMPChargesConfiguredCostsBelowLockOp(t *testing.T) {
	costs := DefaultCosts()
	costs.IntrDispatch, costs.SoftintDispatch, costs.ScreendWakeup = 0, 0, 0
	costs.PollWakeup, costs.PollRound = 0, 0
	costs.LockOp = 3 * sim.Microsecond
	costs.RxDevicePerPkt = 1 * sim.Microsecond
	costs.IPForwardPerPkt = 5 * sim.Microsecond // < 2 LockOps: a claim and a tail
	costs.TxDevicePerPkt = 2 * sim.Microsecond
	costs.ScreendRecvPerPkt = 2 * sim.Microsecond
	costs.ScreendFilterPerPkt, costs.ScreendRuleCost = 0, 0
	costs.ScreendSendPerPkt = 1 * sim.Microsecond
	costs.PolledRxPerPkt = 2 * sim.Microsecond
	costs.PolledRxToScreendPerPkt = 2 * sim.Microsecond
	costs.PolledTxPerPkt = 1 * sim.Microsecond

	for _, tc := range []struct {
		name string
		cfg  Config
		// per-packet cost of each center, per received (rx) or
		// reclaimed (tx) packet
		rx, tx map[prov.Center]sim.Duration
	}{
		{"unmodified", Config{Mode: ModeUnmodified},
			map[prov.Center]sim.Duration{prov.CenterRxIntr: costs.RxDevicePerPkt, prov.CenterIPInput: costs.IPForwardPerPkt},
			map[prov.Center]sim.Duration{prov.CenterTxIntr: costs.TxDevicePerPkt}},
		{"unmodified-screend", Config{Mode: ModeUnmodified, Screend: true},
			map[prov.Center]sim.Duration{prov.CenterRxIntr: costs.RxDevicePerPkt, prov.CenterIPInput: costs.IPForwardPerPkt,
				prov.CenterScreend: costs.ScreendRecvPerPkt + costs.ScreendSendPerPkt},
			map[prov.Center]sim.Duration{prov.CenterTxIntr: costs.TxDevicePerPkt}},
		{"polled-screend", Config{Mode: ModePolled, Quota: 5, Screend: true},
			map[prov.Center]sim.Duration{prov.CenterIPInput: costs.PolledRxToScreendPerPkt,
				prov.CenterScreend: costs.ScreendRecvPerPkt + costs.ScreendSendPerPkt},
			map[prov.Center]sim.Duration{prov.CenterOutput: costs.PolledTxPerPkt}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.CPUs = 2
			cfg.Costs = costs
			eng := sim.NewEngine()
			r := NewRouter(eng, cfg)
			gen := r.AttachGenerator(0, workload.ConstantRate{Rate: 2000, JitterFrac: 0.05}, 0)
			gen.Start()
			eng.Run(sim.Time(200 * sim.Millisecond))
			gen.Stop()
			eng.RunFor(50 * sim.Millisecond) // drain
			sent, delivered := gen.Sent.Value(), r.Delivered()
			if sent == 0 || delivered != sent {
				t.Fatalf("sent %d, delivered %d: want every packet through", sent, delivered)
			}
			if err := r.AuditCycles(); err != nil {
				t.Fatal(err)
			}
			check := func(per map[prov.Center]sim.Duration, pkts uint64) {
				for ct, cost := range per {
					var got sim.Duration
					r.VisitCPUs(func(c *cpu.CPU) { got += c.CenterTime(ct) })
					if want := sim.Duration(pkts) * cost; got != want {
						t.Errorf("%s: charged %v over %d packets (%v each), want %v each",
							ct, got, pkts, got/sim.Duration(pkts), cost)
					}
				}
			}
			// The polled path reclaims transmit descriptors lazily, so
			// count its reclaim steps rather than transmissions.
			reclaimed := delivered
			if ps := r.Poller(); ps != nil {
				reclaimed = ps.TxSteps
			}
			check(tc.rx, sent)
			check(tc.tx, reclaimed)
		})
	}
}
