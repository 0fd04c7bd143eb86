package reasm_test

import (
	"testing"
	"time"

	"retri/internal/aff"
	"retri/internal/core"
	"retri/internal/reasm"
	"retri/internal/staticaddr"
)

// adapter is the surface the three reassemblers built on the table share.
type adapter interface {
	Ingest([]byte)
	PendingCount() int
	Stats() reasm.Stats
}

// TestAdaptersEvictStrictlyAfterTimeout drives each adapter with all but
// the last fragment of one packet, then ingests an undecodable frame — an
// ingest sweeps before it decodes — at the timeout and one nanosecond
// past it. Only the second sweep may evict.
func TestAdaptersEvictStrictlyAfterTimeout(t *testing.T) {
	const timeout = 10 * time.Second
	var now time.Duration
	clock := func() time.Duration { return now }

	affCfg := aff.Config{Space: core.MustSpace(8), MTU: 27, Instrument: true, ReassemblyTimeout: timeout}
	affFrag, err := aff.NewFragmenter(affCfg, core.NewSequentialSelector(affCfg.Space, 0), 1)
	if err != nil {
		t.Fatal(err)
	}
	affTx, err := affFrag.Fragment(make([]byte, 80))
	if err != nil {
		t.Fatal(err)
	}
	stCfg := staticaddr.Config{AddrBits: 16, MTU: 27, ReassemblyTimeout: timeout}
	stFrag, err := staticaddr.NewFragmenter(stCfg, 7)
	if err != nil {
		t.Fatal(err)
	}
	stTx, err := stFrag.Fragment(make([]byte, 80))
	if err != nil {
		t.Fatal(err)
	}
	// Every fragment but the last.
	var affHead, stHead [][]byte
	for _, f := range affTx.Fragments[:len(affTx.Fragments)-1] {
		affHead = append(affHead, f.Bytes)
	}
	for _, f := range stTx.Fragments[:len(stTx.Fragments)-1] {
		stHead = append(stHead, f.Bytes)
	}

	cases := []struct {
		name   string
		r      adapter
		frames [][]byte
	}{
		{"aff", aff.NewReassembler(affCfg, clock, nil), affHead},
		{"truth", aff.NewTruthReassembler(affCfg, clock), affHead},
		{"static", staticaddr.NewReassembler(stCfg, clock, nil), stHead},
	}
	for _, tc := range cases {
		now = 0
		for _, f := range tc.frames {
			tc.r.Ingest(f)
		}
		if tc.r.PendingCount() != 1 {
			t.Fatalf("%s: PendingCount = %d, want 1 partial", tc.name, tc.r.PendingCount())
		}
		now = timeout
		tc.r.Ingest(nil)
		if tc.r.PendingCount() != 1 {
			t.Errorf("%s: evicted exactly at the timeout", tc.name)
		}
		now = timeout + 1
		tc.r.Ingest(nil)
		if tc.r.PendingCount() != 0 || tc.r.Stats().Timeouts != 1 {
			t.Errorf("%s: PendingCount %d, Timeouts %d at timeout+1ns; want 0, 1",
				tc.name, tc.r.PendingCount(), tc.r.Stats().Timeouts)
		}
	}
}
