package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"retri/internal/span"
)

// writeLedger marshals records the way span.Ledger.WriteJSONL does, so the
// CLI sees exactly the on-disk contract.
func writeLedger(t *testing.T, recs []span.Record, widths []span.WidthRecord) string {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, r := range recs {
		if err := enc.Encode(r); err != nil {
			t.Fatal(err)
		}
	}
	for _, w := range widths {
		if err := enc.Encode(w); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(t.TempDir(), "spans.jsonl")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// testLedger: one two-attempt ARQ chain (collided then delivered), one
// plain delivered span, one expired span nobody heard.
func testLedger(t *testing.T) string {
	sec := int64(time.Second)
	recs := []span.Record{
		{
			Type: "span", Trial: "cell#0", Span: 0, Sender: 1,
			Key: 0xb, Width: 4, ID: 0xb, Strategy: "uniform",
			ARQSeq: 5, Retry: 0, Parent: -1,
			QueuedNS: 1 * sec, OpenedNS: 1 * sec, ClosedNS: 2 * sec,
			TotalLen: 8, State: "abandoned", Outcome: "collided", Collided: true,
			FragsSent: 2,
			Frags: []span.Frag{
				{Intro: true, Len: 8, At: time.Second, Collided: 2},
				{Offset: 0, Len: 8, At: time.Second + 100*time.Millisecond, Collided: 2},
			},
		},
		{
			Type: "span", Trial: "cell#0", Span: 1, Sender: 1,
			Key: 0x3, Width: 4, ID: 0x3, Strategy: "uniform",
			ARQSeq: 5, Retry: 1, Parent: 0,
			QueuedNS: 2 * sec, OpenedNS: 2 * sec, ClosedNS: 3 * sec,
			TotalLen: 8, State: "closed", Outcome: "delivered", Deliveries: 1,
			FragsSent: 2,
			Frags: []span.Frag{
				{Intro: true, Len: 8, At: 2 * time.Second, Delivered: 2},
				{Offset: 0, Len: 8, At: 2*time.Second + 100*time.Millisecond, Delivered: 2},
			},
			Events: []span.Event{{At: 3 * time.Second, Node: 2, Kind: "delivered"}},
		},
		{
			Type: "span", Trial: "cell#1", Span: 0, Sender: 3,
			Key: 0xb, Width: 4, ID: 0xb,
			ARQSeq: -1, Retry: -1, Parent: -1,
			QueuedNS: 1 * sec, OpenedNS: 1 * sec, ClosedNS: 2 * sec,
			TotalLen: 4, State: "closed", Outcome: "delivered", Deliveries: 1,
			FragsSent: 1,
			Frags:     []span.Frag{{Intro: true, Len: 4, At: time.Second, Delivered: 1}},
		},
		{
			Type: "span", Trial: "cell#1", Span: 1, Sender: 4,
			Key: 0x7, Width: 4, ID: 0x7,
			ARQSeq: -1, Retry: -1, Parent: -1,
			QueuedNS: 4 * sec, OpenedNS: 4 * sec, ClosedNS: -1,
			TotalLen: 4, State: "abandoned", Outcome: "expired", Expired: 1,
			FragsSent: 1,
			Frags:     []span.Frag{{Intro: true, Len: 4, At: 4 * time.Second, NotHeard: 2}},
		},
	}
	widths := []span.WidthRecord{{Type: "width", Trial: "cell#0", AtNS: 2 * sec, Node: 1, From: 4, To: 5}}
	return writeLedger(t, recs, widths)
}

func runCLI(t *testing.T, args ...string) string {
	t.Helper()
	var buf bytes.Buffer
	if err := run(args, &buf); err != nil {
		t.Fatalf("run(%v): %v", args, err)
	}
	return buf.String()
}

func TestTxDumpsFullRetryChain(t *testing.T) {
	in := testLedger(t)
	out := runCLI(t, "-in", in, "-tx", "4:11")
	// The chain root (id 0xb), its retry link, and the fresh-id child must
	// all appear, as must the unrelated cell#1 bearer of the same id.
	for _, want := range []string{
		"trial cell#0 span 0",
		"id=0xb",
		"outcome=collided",
		"retried as span 1 (fresh id 0x3)",
		"outcome=delivered",
		"trial cell#1 span 0",
		"collided=2",
		"arq-seq=5 retry=1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("-tx output lacks %q:\n%s", want, out)
		}
	}
}

func TestTxSelectorForms(t *testing.T) {
	in := testLedger(t)
	dec := runCLI(t, "-in", in, "-tx", "11")
	hex := runCLI(t, "-in", in, "-tx", "0xb")
	if dec != hex {
		t.Errorf("decimal and hex selectors disagree:\n%s\nvs\n%s", dec, hex)
	}
	if err := run([]string{"-in", in, "-tx", "4:999"}, &bytes.Buffer{}); err == nil {
		t.Error("unmatched -tx id accepted")
	}
	if err := run([]string{"-in", in, "-tx", "banana"}, &bytes.Buffer{}); err == nil {
		t.Error("malformed -tx accepted")
	}
}

func TestFailedRootCauseSummary(t *testing.T) {
	in := testLedger(t)
	out := runCLI(t, "-in", in, "-failed")
	for _, want := range []string{
		"4 spans, 2 failed (50.0%)",
		"collided",
		"expired",
		"not-heard",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("-failed output lacks %q:\n%s", want, out)
		}
	}
}

// TestFailedDegradationBuckets pins the graceful-degradation root causes:
// spans killed by a receiver's MaxPartials cap or by loss-aware retry
// shedding must surface as their own -failed buckets, not vanish into
// "expired" or "abandoned".
func TestFailedDegradationBuckets(t *testing.T) {
	sec := int64(time.Second)
	in := writeLedger(t, []span.Record{
		{
			Type: "span", Trial: "cell#0", Span: 0, Sender: 1,
			Key: 0x5, Width: 4, ID: 0x5,
			ARQSeq: -1, Retry: -1, Parent: -1,
			QueuedNS: 1 * sec, OpenedNS: 1 * sec, ClosedNS: 2 * sec,
			TotalLen: 8, State: "closed", Outcome: "reassembly-evicted", Evicted: 1,
			FragsSent: 1,
			Frags:     []span.Frag{{Intro: true, Len: 8, At: time.Second, Delivered: 1}},
		},
		{
			Type: "span", Trial: "cell#0", Span: 1, Sender: 2,
			Key: 0x9, Width: 4, ID: 0x9,
			ARQSeq: 3, Retry: 2, Parent: 0,
			QueuedNS: 2 * sec, OpenedNS: 2 * sec, ClosedNS: 3 * sec,
			TotalLen: 8, State: "abandoned", Outcome: "retry-budget-exhausted", BudgetExhausted: true,
			FragsSent: 1,
			Frags:     []span.Frag{{Intro: true, Len: 8, At: 2 * time.Second, NotHeard: 1}},
		},
	}, nil)
	out := runCLI(t, "-in", in, "-failed")
	for _, want := range []string{
		"2 spans, 2 failed (100.0%)",
		"reassembly-evicted",
		"retry-budget-exhausted",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("-failed output lacks %q:\n%s", want, out)
		}
	}
}

func TestRetriesHistogram(t *testing.T) {
	in := testLedger(t)
	out := runCLI(t, "-in", in, "-retries")
	if !strings.Contains(out, "1 ARQ chains") {
		t.Errorf("-retries chain count wrong:\n%s", out)
	}
	// One chain of two attempts, ending delivered.
	if !strings.Contains(out, "2         ") || !strings.Contains(out, "        1 ") {
		t.Errorf("-retries histogram row missing:\n%s", out)
	}
}

func TestTimelineCSV(t *testing.T) {
	in := testLedger(t)
	out := runCLI(t, "-in", in, "-timeline")
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if lines[0] != "start_s,opened,closed,collisions,delivered,active_mean,width_mean,collision_rate" {
		t.Errorf("timeline header = %q", lines[0])
	}
	// Buckets span t=0 through the last close at 4s.
	if len(lines) < 5 {
		t.Errorf("timeline rows = %d, want >= 5:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[2], "1,2,") {
		t.Errorf("t=1s bucket should open 2 spans: %q", lines[2])
	}
	// A custom interval changes the bucketing.
	coarse := runCLI(t, "-in", in, "-timeline", "-interval", "10s")
	if n := len(strings.Split(strings.TrimSpace(coarse), "\n")); n != 2 {
		t.Errorf("10s interval rows = %d, want header + one bucket", n)
	}
}

func TestFlagValidation(t *testing.T) {
	var sink bytes.Buffer
	if err := run([]string{"-failed"}, &sink); err == nil {
		t.Error("missing -in accepted")
	}
	if err := run([]string{"-in", "x.jsonl"}, &sink); err == nil {
		t.Error("no mode accepted")
	}
	if err := run([]string{"-in", "x.jsonl", "-failed", "-retries"}, &sink); err == nil {
		t.Error("two modes accepted")
	}
	if err := run([]string{"-in", filepath.Join(t.TempDir(), "absent.jsonl"), "-failed"}, &sink); err == nil {
		t.Error("missing ledger file accepted")
	}
}

// TestIntervalRequiresTimeline: -interval is read only by -timeline, so
// passing it to any other mode is an error rather than silently ignored.
func TestIntervalRequiresTimeline(t *testing.T) {
	for _, args := range [][]string{
		{"-in", "x.jsonl", "-failed", "-interval", "5s"},
		{"-in", "x.jsonl", "-tx", "4:11", "-interval", "1s"},
	} {
		if _, err := parseArgs(args); err == nil {
			t.Errorf("%q accepted", args)
		}
	}
	if _, err := parseArgs([]string{"-in", "x.jsonl", "-timeline", "-interval", "5s"}); err != nil {
		t.Errorf("-timeline -interval rejected: %v", err)
	}
}

// TestTxWidthBounded: no identifier is wider than frame.MaxIDBits, so a
// wider -tx width is rejected at parse time, before any ledger is read,
// instead of ending in "no spans match".
func TestTxWidthBounded(t *testing.T) {
	for _, tx := range []string{"40:5", "33:0x1", "0:5", "banana"} {
		if _, err := parseArgs([]string{"-in", "x.jsonl", "-tx", tx}); err == nil {
			t.Errorf("-tx %s accepted", tx)
		}
	}
	if _, err := parseArgs([]string{"-in", "x.jsonl", "-tx", "32:5"}); err != nil {
		t.Errorf("-tx 32:5 rejected: %v", err)
	}
}
