package experiment

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"retri/internal/core"
	"retri/internal/flood"
	"retri/internal/radio"
	"retri/internal/sim"
	"retri/internal/stats"
	"retri/internal/workload"
	"retri/internal/xrand"
)

// FloodConfig parameterizes the flood-suppression ablation: a grid of
// flood routers originating events, where duplicate suppression is keyed
// by ephemeral RETRI identifiers. Too few identifier bits and distinct
// messages suppress one another; enough bits and the flood delivers like
// one keyed by (source, sequence).
type FloodConfig struct {
	Seed uint64
	// Grid is the n of the n×n deployment.
	Grid int
	// Spacing and Range define the unit-disk layout.
	Spacing float64
	Range   float64
	// TTL is the hop scope of each flood.
	TTL int
	// Interval spaces each node's originations.
	Interval time.Duration
	// PayloadSize is the event payload in bytes.
	PayloadSize int
	// IDBits sweeps the dedup-identifier width.
	IDBits []int
	// Duration and Trials shape the measurement.
	Duration time.Duration
	Trials   int
	// Parallelism is the number of trials simulated concurrently; 0 or 1
	// runs them sequentially with identical output.
	Parallelism int
	// Hooks carries progress and timing callbacks to the runner.
	Hooks RunHooks
}

// DefaultFloodConfig floods 6-byte events across a 6×6 grid.
func DefaultFloodConfig() FloodConfig {
	return FloodConfig{
		Seed:        1,
		Grid:        6,
		Spacing:     5,
		Range:       7.5,
		TTL:         8,
		Interval:    4 * time.Second,
		PayloadSize: 6,
		IDBits:      []int{3, 4, 5, 6, 8, 10},
		Duration:    time.Minute,
		Trials:      3,
	}
}

// FloodResult reports mean per-message reach against identifier width.
type FloodResult struct {
	Config FloodConfig
	// Reach maps identifier bits to the mean number of nodes that
	// delivered each originated message.
	Reach *stats.Series
}

// AblationFloodIDBits measures flood reach as the dedup-identifier width
// grows: suppression collisions smother distinct messages at small widths
// and vanish once the pool comfortably exceeds the neighbourhood's
// concurrent flood count.
func AblationFloodIDBits(cfg FloodConfig) (FloodResult, error) {
	if cfg.Grid < 2 || len(cfg.IDBits) == 0 || cfg.Trials < 1 {
		return FloodResult{}, fmt.Errorf("experiment: degenerate flood config %+v", cfg)
	}
	res := FloodResult{Config: cfg, Reach: stats.NewSeries("reach")}
	groups, err := runCells(fanout{parallelism: cfg.Parallelism, hooks: cfg.Hooks}, xrand.NewSource(cfg.Seed).Child("ablation-flood"),
		cfg.IDBits, cfg.Trials,
		func(bits int) []string { return []string{strconv.Itoa(bits)} },
		func(bits int, src *xrand.Source) (float64, error) { return runFloodTrial(cfg, bits, src) },
		nil, nil)
	if err != nil {
		return FloodResult{}, err
	}
	for bi, reaches := range groups {
		for _, reach := range reaches {
			res.Reach.Add(float64(cfg.IDBits[bi]), reach)
		}
	}
	return res, nil
}

// floodOriginator adapts a flood router to the workload generator.
type floodOriginator struct {
	rt *flood.Router
}

func (f floodOriginator) SendPacket(p []byte) error { return f.rt.Originate(p) }
func (f floodOriginator) Radio() *radio.Radio       { return f.rt.Radio() }

var _ workload.Driver = floodOriginator{}

func runFloodTrial(cfg FloodConfig, idBits int, src *xrand.Source) (meanReach float64, err error) {
	eng := sim.NewEngine()
	disk := radio.NewUnitDisk(cfg.Range)
	med := radio.NewMedium(eng, disk, radio.DefaultParams(), src.Stream("medium"))
	space := core.MustSpace(idBits)
	fcfg := flood.Config{Space: space, TTL: cfg.TTL}

	n := cfg.Grid
	routers := make([]*flood.Router, 0, n*n)
	id := 0
	for row := 0; row < n; row++ {
		for col := 0; col < n; col++ {
			nid := radio.NodeID(id)
			id++
			disk.Place(nid, radio.Point{X: float64(col) * cfg.Spacing, Y: float64(row) * cfg.Spacing})
			r := med.MustAttach(nid)
			label := fmt.Sprint(nid)
			sel := core.NewUniformSelector(space, src.Stream("sel", label))
			rt, err := flood.NewRouter(fcfg, eng, r, sel, src.Stream("rng", label))
			if err != nil {
				return 0, err
			}
			routers = append(routers, rt)
			gen := workload.NewPeriodic(eng, floodOriginator{rt: rt}, cfg.PayloadSize,
				cfg.Interval, cfg.Interval/2, src.Stream("wl", label))
			gen.Start(cfg.Duration)
		}
	}

	eng.Run()

	var originated, delivered int64
	for _, rt := range routers {
		st := rt.Stats()
		originated += st.Originated
		delivered += st.Delivered
	}
	if originated == 0 {
		return 0, nil
	}
	return float64(delivered) / float64(originated), nil
}

// Render renders the flood ablation.
func (r FloodResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Flood-suppression ablation: %dx%d grid, TTL %d, one %dB event per node per %v\n",
		r.Config.Grid, r.Config.Grid, r.Config.TTL, r.Config.PayloadSize, r.Config.Interval)
	fmt.Fprintf(&b, "%8s %26s\n", "id bits", "mean nodes reached/event")
	for _, p := range r.Reach.Points() {
		fmt.Fprintf(&b, "%8.0f %17.2f ± %6.2f\n", p.X, p.Y.Mean, p.Y.StdDev)
	}
	return b.String()
}
