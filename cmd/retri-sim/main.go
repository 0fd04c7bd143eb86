// Command retri-sim runs one configurable simulation scenario: N
// transmitters streaming packets at a receiver over the simulated radio,
// reporting delivery, collision and efficiency measurements next to the
// model's prediction.
//
// Usage:
//
//	retri-sim -transmitters 5 -bits 8 -duration 2m
//	retri-sim -selector listening -bits 6 -packet 80
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"retri/internal/experiment"
	"retri/internal/model"
	"retri/internal/xrand"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "retri-sim:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("retri-sim", flag.ContinueOnError)
	var (
		transmitters = fs.Int("transmitters", 5, "streaming transmitters")
		bits         = fs.Int("bits", 8, "RETRI identifier width")
		packet       = fs.Int("packet", 80, "packet size in bytes")
		duration     = fs.Duration("duration", 2*time.Minute, "simulated time")
		selector     = fs.String("selector", "uniform", "identifier selector: uniform, listening, listening+notify, sequential")
		seed         = fs.Uint64("seed", 1, "random seed")
		hidden       = fs.Bool("hidden", false, "make transmitters mutually hidden (footnote-3 topology)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg := experiment.DefaultFigure4Config()
	cfg.Seed = *seed
	cfg.Transmitters = *transmitters
	cfg.PacketSize = *packet
	cfg.Duration = *duration
	cfg.IDBits = []int{*bits}
	if *hidden {
		cfg.Topology = experiment.HiddenStarTopology
	}
	if err := cfg.Validate(); err != nil {
		return err
	}

	out, err := experiment.RunCollisionTrial(cfg, experiment.SelectorKind(*selector), *bits,
		xrand.NewSource(*seed).Child("retri-sim"))
	if err != nil {
		return err
	}

	fmt.Printf("scenario: %d transmitters, %d-byte packets, %d-bit identifiers, %s selection, %v\n",
		*transmitters, *packet, *bits, *selector, *duration)
	fmt.Printf("packets reassembled (ground truth): %d\n", out.TruthDelivered)
	fmt.Printf("packets reassembled (AFF id only):  %d\n", out.AFFDelivered)
	fmt.Printf("measured collision rate:            %.6f\n", out.CollisionRate)
	fmt.Printf("model collision rate (Eq. 4, T=%d):  %.6f\n",
		*transmitters, model.CollisionRate(*bits, float64(*transmitters)))
	fmt.Printf("receiver's density estimate:        %.2f\n", out.EstimatedT)
	return nil
}
