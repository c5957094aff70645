// Package prof is the cycle-attribution profiler: it joins the CPU
// model's per-center cycle ledger with per-packet provenance records to
// answer the paper's central question — how much of the CPU went to
// packets that were later discarded (§3, §6.1)?
//
// Every tracked packet carries a prov.Handle naming a pooled,
// generation-checked record, created by Attach when the NIC accepts the
// frame. The kernel invests cycles into the record as it works on the
// packet (rx interrupt, ip_input, screend, ...), and its one per-packet
// observation call — the same call the trace ring hears — moves the
// record along: Stage for each stage reached, then exactly one
// finalization. Deliver moves the invested cycles to the useful ledger,
// Drop moves them to the wasted ledger and the drop-provenance table
// (which reason killed it, after how many invested cycles). All three
// close the previous stage's dwell interval the same way. The headline
// WastedFrac is wasted/(useful+wasted).
//
// The layer is strictly observational: it never posts work, never
// touches the event engine, and all hot-path operations (Attach, Stage,
// Invest, Drop, Deliver, Tick) are allocation-free once the record pool
// has grown to the working set, so enabling it cannot perturb the
// simulated schedule.
package prof

import (
	"fmt"
	"io"
	"sort"

	"livelock/internal/prov"
	"livelock/internal/sim"
	"livelock/internal/stats"
)

// record is one in-flight packet's provenance. Slots are pooled and
// generation-checked exactly like the sim package's event handles: a
// stale handle (the packet was already finalized and the slot reused)
// makes every operation a no-op instead of corrupting another packet's
// ledger.
type record struct {
	gen      uint32
	live     bool
	id       uint64
	stage    prov.Stage
	stagedAt sim.Time
	invested [prov.NumCenters]sim.Duration
	total    sim.Duration
}

// dropRow is one row of the drop-provenance table.
type dropRow struct {
	Count    uint64
	Invested sim.Duration
}

const initialRecords = 1024

// Profile accumulates cycle attribution for one run. It is not safe for
// concurrent use; each trial owns its own Profile (the parallel trial
// executor injects a fresh one per trial).
type Profile struct {
	records  []record
	freeList []int32
	liveN    int

	useful [prov.NumCenters]sim.Duration
	wasted [prov.NumCenters]sim.Duration
	drops  [prov.NumReasons]dropRow

	dwell [prov.NumStages]*stats.Histogram

	det detector
}

// New returns an empty profile with a preallocated record pool.
func New() *Profile {
	p := &Profile{
		records:  make([]record, initialRecords),
		freeList: make([]int32, initialRecords),
	}
	for i := range p.records {
		p.records[i].gen = 1
		// Hand out low indices first so short runs stay cache-compact.
		p.freeList[i] = int32(len(p.records) - 1 - i)
	}
	for s := range p.dwell {
		p.dwell[s] = stats.NewHistogram("dwell." + prov.Stage(s).Slug())
	}
	p.det.init()
	return p
}

// Attach begins tracking a packet and returns its handle. Called when
// the NIC accepts the frame into its rx ring — everything upstream
// (wire faults, full-ring discards) costs no CPU and is dropped through
// the zero handle instead.
func (p *Profile) Attach(id uint64, now sim.Time) prov.Handle {
	if len(p.freeList) == 0 {
		p.grow()
	}
	idx := p.freeList[len(p.freeList)-1]
	p.freeList = p.freeList[:len(p.freeList)-1]
	r := &p.records[idx]
	r.live = true
	r.id = id
	r.stage = prov.StageRxRingAccept
	r.stagedAt = now
	for c := range r.invested {
		r.invested[c] = 0
	}
	r.total = 0
	p.liveN++
	return prov.Handle{Idx: idx, Gen: r.gen}
}

func (p *Profile) grow() {
	old := len(p.records)
	next := make([]record, old*2)
	copy(next, p.records)
	p.records = next
	for i := len(p.records) - 1; i >= old; i-- {
		p.records[i].gen = 1
		p.freeList = append(p.freeList, int32(i))
	}
}

func (p *Profile) get(h prov.Handle) *record {
	if h.Zero() || int(h.Idx) >= len(p.records) {
		return nil
	}
	r := &p.records[h.Idx]
	if !r.live || r.gen != h.Gen {
		return nil
	}
	return r
}

// Stage records that the packet reached a new lifecycle stage, closing
// the dwell interval of the previous stage into that stage's histogram.
func (p *Profile) Stage(h prov.Handle, stage prov.Stage, now sim.Time) {
	if r := p.leave(h, now); r != nil {
		r.stage = stage
		r.stagedAt = now
	}
}

// Invest charges d cycles of work on this packet to the given center.
// The caller charges the same cycles to the CPU model; Invest only
// remembers, per packet, where they went so a later Drop can classify
// them as wasted.
func (p *Profile) Invest(h prov.Handle, center prov.Center, d sim.Duration) {
	r := p.get(h)
	if r == nil {
		return
	}
	r.invested[center] += d
	r.total += d
}

// Drop finalizes the packet as discarded: its invested cycles move to
// the wasted ledger and the drop-provenance table, and its record slot
// is freed. Subsequent operations on the handle are no-ops. A drop
// through the zero handle — a packet never attached, which consumed no
// CPU (wire faults, full-ring discards, stall and reset losses) — is
// counted with nothing invested.
func (p *Profile) Drop(h prov.Handle, reason prov.DropReason, now sim.Time) {
	if h.Zero() {
		p.drops[reason].Count++
		return
	}
	if r := p.finish(h, now, &p.wasted); r != nil {
		p.drops[reason].Count++
		p.drops[reason].Invested += r.total
		p.det.wastedNow += r.total
	}
}

// Deliver finalizes the packet as useful: its invested cycles move to
// the useful ledger and its record slot is freed.
func (p *Profile) Deliver(h prov.Handle, now sim.Time) { p.finish(h, now, &p.useful) }

// leave is the dwell-closing path Stage, Drop and Deliver share: it
// observes how long h's live record sat in its current stage and
// returns the record, or nil for a zero or stale handle.
func (p *Profile) leave(h prov.Handle, now sim.Time) *record {
	r := p.get(h)
	if r != nil {
		p.dwell[r.stage].Observe(now.Sub(r.stagedAt))
	}
	return r
}

// finish closes h's record: it leaves its last stage, its invested
// cycles join ledger, and its slot is freed. The returned record stays
// readable until the slot is reused; nil means a zero or stale handle.
func (p *Profile) finish(h prov.Handle, now sim.Time, ledger *[prov.NumCenters]sim.Duration) *record {
	r := p.leave(h, now)
	if r == nil {
		return nil
	}
	for c, d := range r.invested {
		ledger[c] += d
	}
	r.live = false
	r.gen++
	if r.gen == 0 { // wrapped: keep zero meaning "never attached"
		r.gen = 1
	}
	p.freeList = append(p.freeList, h.Idx)
	p.liveN--
	return r
}

// Live returns the number of in-flight records.
func (p *Profile) Live() int { return p.liveN }

// UsefulCycles returns total cycles invested in delivered packets.
func (p *Profile) UsefulCycles() sim.Duration {
	var t sim.Duration
	for _, d := range p.useful {
		t += d
	}
	return t
}

// WastedCycles returns total cycles invested in dropped packets.
func (p *Profile) WastedCycles() sim.Duration {
	var t sim.Duration
	for _, d := range p.wasted {
		t += d
	}
	return t
}

// UsefulByCenter returns cycles invested via center c in delivered packets.
func (p *Profile) UsefulByCenter(c prov.Center) sim.Duration { return p.useful[c] }

// WastedByCenter returns cycles invested via center c in dropped packets.
func (p *Profile) WastedByCenter(c prov.Center) sim.Duration { return p.wasted[c] }

// WastedFrac returns wasted/(useful+wasted), the headline wasted-work
// fraction. With no finalized work it returns 0.
func (p *Profile) WastedFrac() float64 {
	u, w := p.UsefulCycles(), p.WastedCycles()
	if u+w == 0 {
		return 0
	}
	return float64(w) / float64(u+w)
}

// DropCount returns the number of drops recorded for reason.
func (p *Profile) DropCount(reason prov.DropReason) uint64 { return p.drops[reason].Count }

// DropInvested returns the cycles that had been invested in packets
// dropped for reason — the cost of each "foolish" drop point.
func (p *Profile) DropInvested(reason prov.DropReason) sim.Duration {
	return p.drops[reason].Invested
}

// Dwell returns the per-stage dwell histogram: how long packets sat in
// stage before moving on (or dying).
func (p *Profile) Dwell(stage prov.Stage) *stats.Histogram { return p.dwell[stage] }

// ResetStats zeroes the accumulated ledgers, the drop table, the dwell
// histograms, and the detector baseline, keeping in-flight records (and
// their invested-so-far cycles) alive. Trial harnesses call it at the
// end of warmup so the reported fractions cover only the measurement
// window.
func (p *Profile) ResetStats() {
	for c := range p.useful {
		p.useful[c] = 0
		p.wasted[c] = 0
	}
	for r := range p.drops {
		p.drops[r] = dropRow{}
	}
	for _, h := range p.dwell {
		h.Reset()
	}
	p.det.resetStats()
}

// WriteFolded emits the packet-provenance half of the folded-stack
// output (one "frames value" line per sample, flamegraph-ready):
// pkt;useful;<center> and pkt;wasted;<center> weighted by microseconds,
// and drop;<reason> weighted by invested microseconds.
func (p *Profile) WriteFolded(w io.Writer) error {
	for c := prov.Center(0); c < prov.NumCenters; c++ {
		if us := p.useful[c] / sim.Microsecond; us > 0 {
			if _, err := fmt.Fprintf(w, "pkt;useful;%s %d\n", c, us); err != nil {
				return err
			}
		}
	}
	for c := prov.Center(0); c < prov.NumCenters; c++ {
		if us := p.wasted[c] / sim.Microsecond; us > 0 {
			if _, err := fmt.Fprintf(w, "pkt;wasted;%s %d\n", c, us); err != nil {
				return err
			}
		}
	}
	for d := prov.DropReason(1); d < prov.NumReasons; d++ {
		if p.drops[d].Count == 0 {
			continue
		}
		if _, err := fmt.Fprintf(w, "drop;%s %d\n", d, p.drops[d].Invested/sim.Microsecond); err != nil {
			return err
		}
	}
	return nil
}

// WriteDropTable renders the drop-provenance table: which mechanism
// killed packets, how many, and how many cycles had already been sunk
// into them. Rows are ordered by invested cycles (the §6.3 ranking:
// which drop point wastes the most work), then by count.
func (p *Profile) WriteDropTable(w io.Writer) error {
	type row struct {
		reason prov.DropReason
		dropRow
	}
	var rows []row
	for d := prov.DropReason(1); d < prov.NumReasons; d++ {
		if p.drops[d].Count > 0 {
			rows = append(rows, row{d, p.drops[d]})
		}
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Invested != rows[j].Invested {
			return rows[i].Invested > rows[j].Invested
		}
		if rows[i].Count != rows[j].Count {
			return rows[i].Count > rows[j].Count
		}
		return rows[i].reason < rows[j].reason
	})
	if _, err := fmt.Fprintf(w, "%-16s %10s %14s %14s\n", "drop reason", "count", "invested", "per packet"); err != nil {
		return err
	}
	for _, r := range rows {
		per := sim.Duration(0)
		if r.Count > 0 {
			per = r.Invested / sim.Duration(r.Count)
		}
		if _, err := fmt.Fprintf(w, "%-16s %10d %14v %14v\n", r.reason, r.Count, r.Invested, per); err != nil {
			return err
		}
	}
	return nil
}

// WriteDwell renders the non-empty per-stage dwell histograms as
// one-line summaries, in stage order.
func (p *Profile) WriteDwell(w io.Writer) error {
	for s := prov.Stage(0); s < prov.NumStages; s++ {
		h := p.dwell[s]
		if h.Count() == 0 {
			continue
		}
		if _, err := fmt.Fprintln(w, h); err != nil {
			return err
		}
	}
	return nil
}
