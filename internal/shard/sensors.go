package shard

import (
	"cmp"
	"fmt"
	"math/rand/v2"
	"slices"
	"sort"
	"strconv"
	"time"

	"retri/internal/core"
	"retri/internal/mobility"
	"retri/internal/model"
	"retri/internal/xrand"
)

// This file is the massive-population sensor model: a struct-of-arrays
// tile that holds thousands of mostly-asleep duty-cycled nodes with no
// per-node objects, closures or goroutines. It trades the full node/radio
// stack for the machine-type random-access regime the sweep studies —
// sparse awake fraction, open-loop ALOHA senders, fragments identified
// only by an ephemeral (width, id) pair — while keeping the quantities the
// paper cares about exact: ground-truth reception per fragment, AFF
// reassembly keyed by identifier alone, identifier-collision conflicts,
// and Eq. 4's optimal width against the measured concurrency T.
//
// Every mutation happens inside the owning tile's Advance or Settle;
// randomness is one labelled stream per tile consumed only in Advance;
// per-receiver frame loss is counter-hashed from (seed, record seq,
// receiver), so Settle never touches the stream. That is what makes a
// cluster byte-stable at any worker count.

// SensorConfig parameterises a massive-population trial.
type SensorConfig struct {
	// Nodes is the total population; NodesPerTile sets the shard grain
	// (tiles = ceil(Nodes/NodesPerTile)), so world area grows with Nodes
	// and awake density stays constant across populations.
	Nodes        int
	NodesPerTile int
	// Range is the radio range; tiles are Range-sided squares.
	Range float64
	// Duty is the sleep/wake schedule; nodes start in the stationary mix.
	Duty mobility.DutyCycle
	// SendGap is the mean exponential gap between transactions while awake.
	SendGap time.Duration
	// Fragments per transaction (1..16); FrameAir is one fragment's
	// airtime and must equal the driver's lookahead; FragGap bounds the
	// uniform extra gap between fragments.
	Fragments int
	FrameAir  time.Duration
	FragGap   time.Duration
	// DataBits sizes the payload for Eq. 4's width optimum.
	DataBits int
	// Width policy: Adaptive picks model.OptimalBits for the node's live
	// partial-set estimate of T, clamped to [MinBits, MaxBits]; otherwise
	// every transaction uses FixedBits.
	Adaptive  bool
	FixedBits int
	MinBits   int
	MaxBits   int
	// FrameLoss is the independent per-receiver frame-loss probability.
	FrameLoss float64
	// ProbeEvery is the oracle sampling period (default 500ms): each probe
	// measures true concurrency T and Eq. 4's width at every awake node.
	ProbeEvery time.Duration
	// AuditEvery samples receivers (gid % AuditEvery == 0) for invariant
	// audits: never-misdeliver and identifier freshness. 0 disables.
	AuditEvery int
}

// Validate rejects configurations the model cannot represent.
func (c SensorConfig) Validate() error {
	switch {
	case c.Nodes < 1:
		return fmt.Errorf("shard: Nodes must be >= 1, got %d", c.Nodes)
	case c.NodesPerTile < 1 || c.NodesPerTile > maxNodesPerTile:
		return fmt.Errorf("shard: NodesPerTile must be in [1, %d], got %d", maxNodesPerTile, c.NodesPerTile)
	case c.Range <= 0:
		return fmt.Errorf("shard: Range must be positive, got %g", c.Range)
	case c.SendGap <= 0:
		return fmt.Errorf("shard: SendGap must be positive, got %v", c.SendGap)
	case c.Fragments < 1 || c.Fragments > 16:
		return fmt.Errorf("shard: Fragments must be in [1, 16], got %d", c.Fragments)
	case c.FrameAir <= 0:
		return fmt.Errorf("shard: FrameAir must be positive, got %v", c.FrameAir)
	case c.FragGap < 0:
		return fmt.Errorf("shard: FragGap must be >= 0, got %v", c.FragGap)
	case c.DataBits < 1:
		return fmt.Errorf("shard: DataBits must be >= 1, got %d", c.DataBits)
	case c.MinBits < 1 || c.MaxBits > 30 || c.MinBits > c.MaxBits:
		return fmt.Errorf("shard: need 1 <= MinBits <= MaxBits <= 30, got [%d, %d]", c.MinBits, c.MaxBits)
	case !c.Adaptive && (c.FixedBits < 1 || c.FixedBits > 30):
		return fmt.Errorf("shard: FixedBits must be in [1, 30], got %d", c.FixedBits)
	case c.FrameLoss < 0 || c.FrameLoss >= 1:
		return fmt.Errorf("shard: FrameLoss must be in [0, 1), got %g", c.FrameLoss)
	case c.AuditEvery < 0:
		return fmt.Errorf("shard: AuditEvery must be >= 0, got %d", c.AuditEvery)
	}
	return c.Duty.Validate()
}

// Counters aggregates a trial's observables. Tile counters are merged in
// tile-index order, so sums (including float accumulations) are identical
// at every worker count.
type Counters struct {
	// Offered counts transactions started; Records counts fragments put
	// on the air.
	Offered int64
	Records int64
	// TruthPairs counts (transaction, receiver) pairs where the receiver
	// physically heard every fragment — the ground-truth denominator.
	// Delivered counts pairs the AFF reassembler completed cleanly.
	// Conflicts counts identifier collisions detected at a receiver (two
	// live transactions sharing a widthkey).
	TruthPairs int64
	Delivered  int64
	Conflicts  int64
	// Per-fragment channel verdicts at in-range awake receivers.
	NotHeard   int64
	HalfDuplex int64
	Collided   int64
	RandomLoss int64
	// Events counts tile heap events, Verdicts per-receiver fragment
	// evaluations; their sum is the trial's events-per-second numerator.
	Events   uint64
	Verdicts uint64
	// SumWidth accumulates the chosen width per offered transaction.
	SumWidth float64
	// Probe accumulators: true concurrency T, Eq. 4 optimal width, and
	// |achieved - optimal| per awake node per probe.
	ProbeT     float64
	ProbeOptH  float64
	ProbeGap   float64
	Probes     int64
	GapSamples int64
	AwakeSum   int64
	ProbeRound int64
	// Audit results over sampled receivers.
	AuditedDeliveries   int64
	Misdeliveries       int64
	FreshnessViolations int64
}

// Add accumulates another counter set (tile or trial merge). Callers must
// add in a deterministic order — tile index, then trial index — so float
// accumulations are identical at every worker count.
func (c *Counters) Add(o *Counters) {
	c.Offered += o.Offered
	c.Records += o.Records
	c.TruthPairs += o.TruthPairs
	c.Delivered += o.Delivered
	c.Conflicts += o.Conflicts
	c.NotHeard += o.NotHeard
	c.HalfDuplex += o.HalfDuplex
	c.Collided += o.Collided
	c.RandomLoss += o.RandomLoss
	c.Events += o.Events
	c.Verdicts += o.Verdicts
	c.SumWidth += o.SumWidth
	c.ProbeT += o.ProbeT
	c.ProbeOptH += o.ProbeOptH
	c.ProbeGap += o.ProbeGap
	c.Probes += o.Probes
	c.GapSamples += o.GapSamples
	c.AwakeSum += o.AwakeSum
	c.ProbeRound += o.ProbeRound
	c.AuditedDeliveries += o.AuditedDeliveries
	c.Misdeliveries += o.Misdeliveries
	c.FreshnessViolations += o.FreshnessViolations
}

// MeanWidth is the achieved identifier width per offered transaction.
func (c *Counters) MeanWidth() float64 {
	if c.Offered == 0 {
		return 0
	}
	return c.SumWidth / float64(c.Offered)
}

// MeanT is the probe-measured mean concurrency at awake nodes.
func (c *Counters) MeanT() float64 {
	if c.Probes == 0 {
		return 0
	}
	return c.ProbeT / float64(c.Probes)
}

// MeanOptH is the probe-measured mean Eq. 4 optimal width.
func (c *Counters) MeanOptH() float64 {
	if c.Probes == 0 {
		return 0
	}
	return c.ProbeOptH / float64(c.Probes)
}

// MeanGap is the mean |achieved - optimal| width over probed senders.
func (c *Counters) MeanGap() float64 {
	if c.GapSamples == 0 {
		return 0
	}
	return c.ProbeGap / float64(c.GapSamples)
}

// MeanAwake is the mean number of awake nodes per probe round.
func (c *Counters) MeanAwake() float64 {
	if c.ProbeRound == 0 {
		return 0
	}
	return float64(c.AwakeSum) / float64(c.ProbeRound)
}

// CollisionRate is 1 - Delivered/TruthPairs: the fraction of physically
// complete receptions the AFF layer lost to identifier collisions — the
// measured counterpart of Eq. 4's prediction.
func (c *Counters) CollisionRate() float64 {
	if c.TruthPairs == 0 {
		return 0
	}
	return 1 - float64(c.Delivered)/float64(c.TruthPairs)
}

// Cluster is a full massive-population world: the tiles, their shared
// geometry, and the Eq. 4 width memo. It implements Router.
type Cluster struct {
	cfg  SensorConfig
	geom Geometry
	// optW memoises the adaptive width choice per integer concurrency
	// estimate — OptimalBits is a search, far too slow per transaction.
	optW      []uint8
	tiles     []*SensorTile
	nextProbe time.Duration
}

// NewCluster lays out the population. Node placement and initial schedules
// are drawn from per-tile labelled streams of src, so the world is a pure
// function of (cfg, seed).
func NewCluster(cfg SensorConfig, src *xrand.Source) (*Cluster, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.ProbeEvery <= 0 {
		cfg.ProbeEvery = 500 * time.Millisecond
	}
	nTiles := (cfg.Nodes + cfg.NodesPerTile - 1) / cfg.NodesPerTile
	c := &Cluster{
		cfg:       cfg,
		geom:      SquareGeometry(nTiles, cfg.Range),
		nextProbe: cfg.ProbeEvery,
	}
	c.optW = make([]uint8, 65)
	for t := 1; t < len(c.optW); t++ {
		w, _ := model.OptimalBits(cfg.DataBits, float64(t), cfg.MaxBits)
		if w < cfg.MinBits {
			w = cfg.MinBits
		}
		c.optW[t] = uint8(w)
	}
	total := c.geom.Tiles()
	per, rem := cfg.Nodes/total, cfg.Nodes%total
	lossSeed := src.Child("shard", "loss").Seed()
	base := uint32(0)
	c.tiles = make([]*SensorTile, total)
	for i := 0; i < total; i++ {
		n := per
		if i < rem {
			n++
		}
		rng := src.Stream("shard", "tile", strconv.Itoa(i))
		c.tiles[i] = newSensorTile(c, int32(i), base, n, rng, lossSeed)
		base += uint32(n)
	}
	return c, nil
}

// Geom exposes the tile layout.
func (c *Cluster) Geom() Geometry { return c.geom }

// Regions returns the tiles as engine regions, in tile-index order.
func (c *Cluster) Regions() []Region {
	rs := make([]Region, len(c.tiles))
	for i, t := range c.tiles {
		rs[i] = t
	}
	return rs
}

// Route implements Router: a fragment reaches every tile whose rectangle
// intersects the range disk around its sender.
func (c *Cluster) Route(r *Record, into []int32) []int32 {
	return c.geom.TilesTouching(float64(r.X), float64(r.Y), c.cfg.Range, into)
}

// OnBarrier is the engine hook: it fires oracle probes on schedule. It runs
// sequentially at the barrier, walking tiles in index order.
func (c *Cluster) OnBarrier(now time.Duration) {
	for now >= c.nextProbe {
		c.probe()
		c.nextProbe += c.cfg.ProbeEvery
	}
}

// Counters merges tile counters in tile-index order.
func (c *Cluster) Counters() Counters {
	var out Counters
	for _, t := range c.tiles {
		out.Add(&t.ctr)
	}
	return out
}

// adaptiveWidth maps a concurrency estimate to the memoised Eq. 4 width.
func (c *Cluster) adaptiveWidth(t int) uint8 {
	if t < 1 {
		t = 1
	}
	if t >= len(c.optW) {
		t = len(c.optW) - 1
	}
	return c.optW[t]
}

// probe measures ground truth the protocol cannot see: for every awake
// node, the true number of concurrently transmitting neighbors (T), the
// Eq. 4 width for that T, and the gap to the node's achieved width.
func (c *Cluster) probe() {
	for _, t := range c.tiles {
		t.collectActive()
	}
	r2 := c.cfg.Range * c.cfg.Range
	for _, t := range c.tiles {
		cx, cy := int(t.idx)%c.geom.TX, int(t.idx)/c.geom.TX
		for k := range t.awake {
			v := &t.awake[k]
			vx, vy := float64(v.x), float64(v.y)
			conc := 1 // the node's own (hypothetical) transaction
			for ny := cy - 1; ny <= cy+1; ny++ {
				for nx := cx - 1; nx <= cx+1; nx++ {
					if nx < 0 || nx >= c.geom.TX || ny < 0 || ny >= c.geom.TY {
						continue
					}
					for _, a := range c.tiles[ny*c.geom.TX+nx].active {
						if a.gid == v.gid {
							continue
						}
						dx := float64(a.x) - vx
						dy := float64(a.y) - vy
						if dx*dx+dy*dy <= r2 {
							conc++
						}
					}
				}
			}
			optH := float64(c.adaptiveWidth(conc))
			t.ctr.ProbeT += float64(conc)
			t.ctr.ProbeOptH += optH
			t.ctr.Probes++
			if w := t.curWidth[v.node]; w > 0 {
				g := float64(w) - optH
				if g < 0 {
					g = -g
				}
				t.ctr.ProbeGap += g
				t.ctr.GapSamples++
			}
		}
		t.ctr.AwakeSum += int64(len(t.awake))
		t.ctr.ProbeRound++
	}
}

// Tile event kinds.
const (
	evWake = iota
	evSleep
	evTxStart
	evFrag
)

// tev is a compact heap event: 24 bytes, no closure, no allocation.
type tev struct {
	at   time.Duration
	seq  uint32
	node int32
	kind uint8
}

// Reassembly state lives in two flat tables over packed keys. AFF partials
// are keyed by (receiver, widthkey) ONLY — the receiver has no idea who is
// sending, that is the paper's premise — as rx<<partRxShift | wk. Validate
// caps widths at 30 bits, so a widthkey (width<<32 | id) stays below 2^37,
// and NodesPerTile at maxNodesPerTile, so rx < 2^26: the key is exact and
// below 2^63, never emptyKey.
//
// Truth partials are keyed by (receiver, sender) as rx<<32 | from, with
// the sender's tx in the value. That is exact too: a sender's fragments
// reach a receiver in time order, so once a fragment of its next
// transaction arrives, the entry for the older one is never looked up
// again, and replacing it loses nothing.
const (
	partRxShift     = 37
	maxNodesPerTile = 1 << 26
)

func partKey(rx int32, wk uint64) uint64 { return uint64(rx)<<partRxShift | wk }

func truthKey(rx int32, from uint32) uint64 { return uint64(rx)<<32 | uint64(from) }

type partVal struct {
	from     uint32
	tx       uint32
	got      uint32
	epoch    uint32
	conflict bool
	lastEnd  time.Duration
}

type truthVal struct {
	tx      uint32
	got     uint32
	epoch   uint32
	lastEnd time.Duration
}

// awakeRx is one awake node: everything verdicts reads per receiver, so
// settling a frame walks one contiguous slice. wakeAt and sleepAt bound
// the node's current awake interval.
type awakeRx struct {
	x, y            float32
	gid             uint32
	node            int32
	wakeAt, sleepAt time.Duration
}

// SensorTile is one shard: a struct-of-arrays population slice plus its
// own event heap, rng stream, live-record window and reassembly tables.
type SensorTile struct {
	cl   *Cluster
	idx  int32
	base uint32
	rng  *rand.Rand

	// Struct-of-arrays node state. A node is awake iff awakePos >= 0, and
	// then awake[awakePos] is its record; sleep swap-removes it.
	x, y      []float32
	epoch     []uint32
	prevWK    []uint64
	curWK     []uint64
	curWidth  []uint8
	fragsLeft []uint8
	curTx     []uint32
	partCnt   []int32
	awakePos  []int32
	awake     []awakeRx

	heap    []tev
	seq     uint32
	emitBuf []Record
	emitSeq uint32

	// window holds live records sorted by (End, Seq); the first nSettled
	// are already judged and kept only for overlap scans until prune
	// drops them. overlappers relies on two preconditions: the window
	// stays sorted by (End, Seq), and every record lasts exactly FrameAir
	// (frag sets End = Start + FrameAir), so Start is sorted too and a
	// record's time-overlappers form one contiguous run.
	window   []Record
	nSettled int
	overl    []int32

	parts table[partVal]
	truth table[truthVal]

	// active is probe scratch: the awake nodes transmitting at the probe
	// instant.
	active []awakeRx

	lossSeed    uint64
	lossThresh  uint64
	settleCalls uint64
	ctr         Counters
}

// sweepEvery is the settle-call period of the reassembly expiry sweep;
// keepAirtimes is how many frame airtimes of settled history the overlap
// window retains (must cover one full window plus one airtime).
const (
	sweepEvery   = 256
	keepAirtimes = 4
)

func newSensorTile(cl *Cluster, idx int32, base uint32, n int, rng *rand.Rand, lossSeed uint64) *SensorTile {
	t := &SensorTile{
		cl:       cl,
		idx:      idx,
		base:     base,
		rng:      rng,
		lossSeed: lossSeed,
		// Loss comparison in fixed point: hash < FrameLoss * 2^64.
		lossThresh: uint64(cl.cfg.FrameLoss * float64(1<<63) * 2),
	}
	x0, y0, x1, y1 := cl.geom.Rect(int(idx))
	t.x = make([]float32, n)
	t.y = make([]float32, n)
	t.epoch = make([]uint32, n)
	t.prevWK = make([]uint64, n)
	t.curWK = make([]uint64, n)
	t.curWidth = make([]uint8, n)
	t.fragsLeft = make([]uint8, n)
	t.curTx = make([]uint32, n)
	t.partCnt = make([]int32, n)
	t.awakePos = make([]int32, n)
	t.heap = make([]tev, 0, 2*n+4)

	cfg := &cl.cfg
	pUp := cfg.Duty.AwakeFraction()
	for i := 0; i < n; i++ {
		t.x[i] = float32(x0 + rng.Float64()*(x1-x0))
		t.y[i] = float32(y0 + rng.Float64()*(y1-y0))
		t.prevWK[i] = ^uint64(0)
		t.awakePos[i] = -1
		if !cfg.Adaptive {
			t.curWidth[i] = uint8(cfg.FixedBits)
		}
		// Start in the stationary mix: awake with probability
		// MeanUp/(MeanUp+MeanDown), with the memoryless residual drawn
		// fresh either way.
		if rng.Float64() < pUp {
			t.epoch[i] = 1
			t.enlist(int32(i), 0, expDur(rng, cfg.Duty.MeanUp))
			t.push(expDur(rng, cfg.SendGap), int32(i), evTxStart)
		} else {
			t.push(expDur(rng, cfg.Duty.MeanDown), int32(i), evWake)
		}
	}
	return t
}

// gid maps a local index to the global node id.
func (t *SensorTile) gid(i int32) uint32 { return t.base + uint32(i) }

func (t *SensorTile) audited(gid uint32) bool {
	ae := t.cl.cfg.AuditEvery
	return ae > 0 && gid%uint32(ae) == 0
}

// --- tile event heap (manual, no interface boxing) ---

func (t *SensorTile) push(at time.Duration, node int32, kind uint8) {
	t.heap = append(t.heap, tev{at: at, seq: t.seq, node: node, kind: kind})
	t.seq++
	i := len(t.heap) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !t.less(i, p) {
			break
		}
		t.heap[i], t.heap[p] = t.heap[p], t.heap[i]
		i = p
	}
}

func (t *SensorTile) less(i, j int) bool {
	a, b := &t.heap[i], &t.heap[j]
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (t *SensorTile) pop() tev {
	h := t.heap
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	t.heap = h[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		s := i
		if l < last && t.less(l, s) {
			s = l
		}
		if r < last && t.less(r, s) {
			s = r
		}
		if s == i {
			break
		}
		t.heap[i], t.heap[s] = t.heap[s], t.heap[i]
		i = s
	}
	return top
}

// --- Region implementation ---

// Advance runs the tile's events up to the window end.
func (t *SensorTile) Advance(to time.Duration) {
	for len(t.heap) > 0 && t.heap[0].at <= to {
		ev := t.pop()
		t.ctr.Events++
		switch ev.kind {
		case evWake:
			t.wake(ev.node, ev.at)
		case evSleep:
			t.sleep(ev.node, ev.at)
		case evTxStart:
			t.txStart(ev.node, ev.at)
		case evFrag:
			t.frag(ev.node, ev.at)
		}
	}
}

func (t *SensorTile) wake(i int32, now time.Duration) {
	cfg := &t.cl.cfg
	// Waking wipes RAM: a new epoch invalidates every partial the node
	// held (churn semantics — crash-and-restart loses reassembly state).
	t.epoch[i]++
	t.partCnt[i] = 0
	t.enlist(i, now, now+expDur(t.rng, cfg.Duty.MeanUp))
	t.push(now+expDur(t.rng, cfg.SendGap), i, evTxStart)
}

// enlist appends node i's awake record for [wakeAt, sleepAt] and
// schedules the sleep.
func (t *SensorTile) enlist(i int32, wakeAt, sleepAt time.Duration) {
	t.awakePos[i] = int32(len(t.awake))
	t.awake = append(t.awake, awakeRx{x: t.x[i], y: t.y[i], gid: t.gid(i), node: i, wakeAt: wakeAt, sleepAt: sleepAt})
	t.push(sleepAt, i, evSleep)
}

func (t *SensorTile) sleep(i int32, now time.Duration) {
	p := t.awakePos[i]
	last := len(t.awake) - 1
	moved := t.awake[last]
	t.awake[p] = moved
	t.awakePos[moved.node] = p
	t.awake = t.awake[:last]
	t.awakePos[i] = -1
	t.fragsLeft[i] = 0
	t.push(now+expDur(t.rng, t.cl.cfg.Duty.MeanDown), i, evWake)
}

func (t *SensorTile) txStart(i int32, now time.Duration) {
	cfg := &t.cl.cfg
	if t.awakePos[i] < 0 || t.fragsLeft[i] > 0 {
		return // stale timer from a previous awake interval
	}
	// A transaction must fit inside the current awake interval even with
	// maximal inter-fragment gaps; one that cannot is never started (the
	// node stays quiet until its next wake reschedules the generator).
	worst := time.Duration(cfg.Fragments)*cfg.FrameAir + time.Duration(cfg.Fragments-1)*cfg.FragGap
	if now+worst > t.awake[t.awakePos[i]].sleepAt {
		return
	}
	var w uint8
	if cfg.Adaptive {
		// The node's estimate of T: itself plus every live reassembly in
		// its RAM — exactly the information a real receiver has.
		w = t.cl.adaptiveWidth(1 + int(t.partCnt[i]))
	} else {
		w = uint8(cfg.FixedBits)
	}
	mask := uint64(1)<<w - 1
	wk := core.WidthKey(int(w), t.rng.Uint64()&mask)
	// Freshness: never reuse the previous transaction's widthkey (the
	// turnover rule that makes identifiers ephemeral).
	for tries := 0; wk == t.prevWK[i] && tries < 16; tries++ {
		wk = core.WidthKey(int(w), t.rng.Uint64()&mask)
	}
	if t.audited(t.gid(i)) && wk == t.prevWK[i] {
		t.ctr.FreshnessViolations++
	}
	t.prevWK[i] = wk
	t.curWK[i] = wk
	t.curWidth[i] = w
	t.curTx[i]++
	t.fragsLeft[i] = uint8(cfg.Fragments)
	t.ctr.Offered++
	t.ctr.SumWidth += float64(w)
	t.frag(i, now)
}

func (t *SensorTile) frag(i int32, now time.Duration) {
	cfg := &t.cl.cfg
	if t.awakePos[i] < 0 || t.fragsLeft[i] == 0 {
		return
	}
	f := uint8(cfg.Fragments) - t.fragsLeft[i]
	t.emitBuf = append(t.emitBuf, Record{
		Seq:   uint64(t.idx)<<32 | uint64(t.emitSeq),
		From:  t.gid(i),
		X:     t.x[i],
		Y:     t.y[i],
		Start: now,
		End:   now + cfg.FrameAir,
		WK:    t.curWK[i],
		Tx:    t.curTx[i],
		Frag:  f,
		NFrag: uint8(cfg.Fragments),
	})
	t.emitSeq++
	t.ctr.Records++
	t.fragsLeft[i]--
	if t.fragsLeft[i] > 0 {
		gap := time.Duration(t.rng.Float64() * float64(cfg.FragGap))
		t.push(now+cfg.FrameAir+gap, i, evFrag)
	} else {
		t.push(now+cfg.FrameAir+expDur(t.rng, cfg.SendGap), i, evTxStart)
	}
}

// Emit hands the window's records to the barrier.
func (t *SensorTile) Emit(into []Record) []Record {
	into = append(into, t.emitBuf...)
	t.emitBuf = t.emitBuf[:0]
	return into
}

// Absorb keeps the routed records, maintaining (End, Seq) order. All new
// records end later than everything already settled, so sorting the
// unsettled tail keeps the whole window sorted.
func (t *SensorTile) Absorb(batch []Record) {
	t.window = append(t.window, batch...)
	slices.SortFunc(t.window[t.nSettled:], byEndSeq)
}

// byEndSeq orders records by (End, Seq), the window's sort key.
func byEndSeq(a, b Record) int {
	if c := cmp.Compare(a.End, b.End); c != 0 {
		return c
	}
	return cmp.Compare(a.Seq, b.Seq)
}

// Settle judges every absorbed record whose airtime ended by the barrier,
// then prunes the overlap window.
func (t *SensorTile) Settle(to time.Duration) {
	for t.nSettled < len(t.window) && t.window[t.nSettled].End <= to {
		t.verdicts(&t.window[t.nSettled])
		t.nSettled++
	}
	t.prune(to)
	t.settleCalls++
	if t.settleCalls%sweepEvery == 0 {
		t.sweep(to)
	}
}

// Idle reports whether the tile has pending events. Duty cycles reschedule
// forever, so a sensor tile is effectively never idle; massive runs use a
// horizon, not drain.
func (t *SensorTile) Idle() bool { return len(t.heap) == 0 && len(t.window) == t.nSettled }

// verdicts evaluates one landed record against every awake local receiver.
// Verdict order mirrors the full radio stack: not-heard (asleep for part
// of the frame), half-duplex (receiver was itself transmitting), collision
// (another audible frame overlapped), then independent random loss.
func (t *SensorTile) verdicts(r *Record) {
	cfg := &t.cl.cfg
	r2 := cfg.Range * cfg.Range
	// Find the record's time-overlappers once; receivers then only test
	// audibility per overlapper.
	t.overl = overlappers(t.window, r, t.overl[:0])
	for k := range t.awake {
		v := &t.awake[k]
		if v.gid == r.From {
			continue
		}
		dx := float64(v.x) - float64(r.X)
		dy := float64(v.y) - float64(r.Y)
		if dx*dx+dy*dy > r2 {
			continue
		}
		t.ctr.Verdicts++
		// The receiver must have been awake for the whole airtime. (A
		// node that slept and re-woke within one lookahead window loses
		// the old interval's coverage; with mean down-times orders of
		// magnitude above the window this is unobservable.)
		if !(v.wakeAt <= r.Start && r.End <= v.sleepAt) {
			t.ctr.NotHeard++
			continue
		}
		half, coll := false, false
		for _, oj := range t.overl {
			o := &t.window[oj]
			if o.From == v.gid {
				half = true
				break
			}
			odx := float64(o.X) - float64(v.x)
			ody := float64(o.Y) - float64(v.y)
			if odx*odx+ody*ody <= r2 {
				coll = true
			}
		}
		if half {
			t.ctr.HalfDuplex++
			continue
		}
		if coll {
			t.ctr.Collided++
			continue
		}
		if t.lost(r.Seq, v.gid) {
			t.ctr.RandomLoss++
			continue
		}
		t.deliver(r, v)
	}
}

// overlappers appends to into the window indices, in window order, of every
// record whose airtime overlaps r's (o.Start < r.End && o.End > r.Start).
// Same-sender records never overlap (a sender is strictly sequential), so
// they are skipped wholesale, r itself included. Under the window's
// preconditions the overlappers are the run from the first End > r.Start
// up to the first Start >= r.End: O(log W + k), not a full-window scan.
func overlappers(window []Record, r *Record, into []int32) []int32 {
	first := sort.Search(len(window), func(j int) bool { return window[j].End > r.Start })
	for j := first; j < len(window) && window[j].Start < r.End; j++ {
		if window[j].From != r.From {
			into = append(into, int32(j))
		}
	}
	return into
}

// lost is the counter-based per-receiver loss draw: a pure function of
// (seed, record, receiver), so it never touches the tile stream and is
// identical at any worker count.
func (t *SensorTile) lost(seq uint64, gid uint32) bool {
	if t.lossThresh == 0 {
		return false
	}
	return mix64(t.lossSeed^seq*0x9E3779B97F4A7C15^uint64(gid)*0xBF58476D1CE4E5B9) < t.lossThresh
}

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// deliver feeds one cleanly received fragment to both reassemblers: the
// ground-truth one (keyed by real sender and tx) and the AFF one (keyed by
// widthkey alone). Epoch mismatches mean the entry predates the receiver's
// last wake and is stale RAM: it is replaced, never merged.
func (t *SensorTile) deliver(r *Record, v *awakeRx) {
	full := uint32(1)<<r.NFrag - 1
	ep := t.epoch[v.node]

	tk := truthKey(v.node, r.From)
	tp, fresh := t.truth.put(tk)
	if fresh || tp.epoch != ep || tp.tx != r.Tx {
		*tp = truthVal{tx: r.Tx, epoch: ep}
	}
	tp.got |= 1 << r.Frag
	tp.lastEnd = r.End
	truthDone := tp.got == full
	if truthDone {
		t.ctr.TruthPairs++
		t.truth.del(tk)
	}

	pk := partKey(v.node, r.WK)
	pp, fresh := t.parts.put(pk)
	if fresh || pp.epoch != ep {
		*pp = partVal{from: r.From, tx: r.Tx, epoch: ep}
		t.partCnt[v.node]++
	}
	if pp.from != r.From || pp.tx != r.Tx {
		// Identifier collision: a second live transaction chose the same
		// widthkey at this receiver. The reassembly is poisoned; the
		// checksum model says it can never complete.
		if !pp.conflict {
			pp.conflict = true
			t.ctr.Conflicts++
		}
		if r.End > pp.lastEnd {
			pp.lastEnd = r.End
		}
		return
	}
	if pp.conflict {
		if r.End > pp.lastEnd {
			pp.lastEnd = r.End
		}
		return
	}
	pp.got |= 1 << r.Frag
	pp.lastEnd = r.End
	if pp.got != full {
		return
	}
	t.ctr.Delivered++
	t.partCnt[v.node]--
	t.parts.del(pk)
	if t.audited(v.gid) {
		t.ctr.AuditedDeliveries++
		// Never-misdeliver: a clean AFF completion must coincide with the
		// ground-truth completion of the same (sender, tx) — if it does
		// not, the reassembler stitched fragments of different
		// transactions together.
		if !truthDone {
			t.ctr.Misdeliveries++
		}
	}
}

// collectActive snapshots currently transmitting nodes for a probe.
func (t *SensorTile) collectActive() {
	t.active = t.active[:0]
	for _, v := range t.awake {
		if t.fragsLeft[v.node] > 0 {
			t.active = append(t.active, v)
		}
	}
}

// prune drops the settled records that can no longer overlap an unsettled
// one. Every unsettled record starts after now − FrameAir, so a record that
// ended by now − keepAirtimes·FrameAir is history.
func (t *SensorTile) prune(now time.Duration) {
	cut := now - keepAirtimes*t.cl.cfg.FrameAir
	kept := 0
	for kept < t.nSettled && t.window[kept].End <= cut {
		kept++
	}
	if kept > 0 {
		n := copy(t.window, t.window[kept:])
		t.window = t.window[:n]
		t.nSettled -= kept
	}
}

// sweep expires abandoned reassembly state: entries whose last fragment
// ended more than four transaction spans ago, and entries from before
// their receiver's last wake. Every decision is a per-entry predicate and
// every update a commutative counter, so the outcome does not depend on
// slot order. Stale partials count in partCnt, the adaptive arm's estimate
// of T, until this sweep drops them, so its 256-settle cadence is part of
// the output.
func (t *SensorTile) sweep(now time.Duration) {
	cfg := &t.cl.cfg
	span := time.Duration(cfg.Fragments)*cfg.FrameAir + time.Duration(cfg.Fragments-1)*cfg.FragGap
	expiry := now - 4*span
	t.parts.sweep(func(k uint64, v *partVal) bool {
		rx := k >> partRxShift
		if v.epoch != t.epoch[rx] {
			return true
		}
		if v.lastEnd < expiry {
			t.partCnt[rx]--
			return true
		}
		return false
	})
	t.truth.sweep(func(k uint64, v *truthVal) bool {
		return v.lastEnd < expiry || v.epoch != t.epoch[k>>32]
	})
}

// expDur draws an exponential duration with the given mean, clamped to at
// least one nanosecond so schedules always advance.
func expDur(rng *rand.Rand, mean time.Duration) time.Duration {
	d := time.Duration(rng.ExpFloat64() * float64(mean))
	if d < 1 {
		d = 1
	}
	return d
}
