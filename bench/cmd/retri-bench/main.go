// Command retri-bench runs the RETRI end-to-end benchmark. From the bench
// directory:
//
//	go run ./cmd/retri-bench -seed 1                  # all workloads, tables + results JSON
//	go run ./cmd/retri-bench -workload chaos-arq -seconds 20 -trace 0
//	go run ./cmd/retri-bench -compare a.json b.json   # flag regressions beyond the bounds
//
// See ../README.md.
package main

import (
	"os"

	"retri/bench"
)

func main() {
	os.Exit(bench.Main(os.Args[1:], os.Stdout, os.Stderr))
}
