// Command retri-trace queries a span ledger written by
// retri-experiments -span-out: per-transaction causal chains, root-cause
// summaries of failed transactions, ARQ retry-chain statistics, and a
// per-second timeline of the medium.
//
// Usage:
//
//	retri-trace -in spans.jsonl -tx 4:11      # causal chains for width 4, id 0xb
//	retri-trace -in spans.jsonl -tx 11        # any width with id 0xb
//	retri-trace -in spans.jsonl -failed       # what killed the non-delivered spans
//
// The -failed root causes include the graceful-degradation outcomes:
// "reassembly-evicted" (a receiver's MaxPartials cap dropped the partial
// state) and "retry-budget-exhausted" (the ARQ endpoint gave up the chain,
// possibly early under loss-aware budget shedding).
//
//	retri-trace -in spans.jsonl -retries      # retry chain-length histogram
//	retri-trace -in spans.jsonl -timeline     # per-second CSV time series
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"retri/internal/frame"
	"retri/internal/span"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "retri-trace:", err)
		os.Exit(1)
	}
}

type options struct {
	in string
	tx string
	// txWidth and txID are tx parsed; a txWidth of -1 matches every width.
	txWidth  int
	txID     uint64
	failed   bool
	retries  bool
	timeline bool
	interval time.Duration
}

func parseArgs(args []string) (options, error) {
	fs := flag.NewFlagSet("retri-trace", flag.ContinueOnError)
	var o options
	fs.StringVar(&o.in, "in", "", "span ledger (JSON Lines from retri-experiments -span-out); - reads stdin")
	fs.StringVar(&o.tx, "tx", "", "dump causal chains for a transaction identifier, as width:id or bare id (decimal or 0x hex)")
	fs.BoolVar(&o.failed, "failed", false, "summarize non-delivered transactions by root cause")
	fs.BoolVar(&o.retries, "retries", false, "histogram ARQ retry chain lengths")
	fs.BoolVar(&o.timeline, "timeline", false, "write the per-interval time series as CSV")
	fs.DurationVar(&o.interval, "interval", time.Second, "bucket width for -timeline")
	if err := fs.Parse(args); err != nil {
		return options{}, err
	}
	if o.in == "" {
		return options{}, fmt.Errorf("-in is required")
	}
	modes := 0
	for _, on := range []bool{o.tx != "", o.failed, o.retries, o.timeline} {
		if on {
			modes++
		}
	}
	if modes != 1 {
		return options{}, fmt.Errorf("pick exactly one of -tx, -failed, -retries, -timeline")
	}
	intervalSet := false
	fs.Visit(func(f *flag.Flag) { intervalSet = intervalSet || f.Name == "interval" })
	if intervalSet && !o.timeline {
		return options{}, fmt.Errorf("-interval has no effect without -timeline")
	}
	if o.interval <= 0 {
		return options{}, fmt.Errorf("invalid -interval %v: must be positive", o.interval)
	}
	if o.tx != "" {
		var err error
		if o.txWidth, o.txID, err = parseTx(o.tx); err != nil {
			return options{}, err
		}
	}
	return o, nil
}

func run(args []string, w io.Writer) error {
	o, err := parseArgs(args)
	if err != nil {
		return err
	}
	var in io.Reader = os.Stdin
	if o.in != "-" {
		f, err := os.Open(o.in)
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	recs, _, err := span.ReadJSONL(in)
	if err != nil {
		return err
	}
	switch {
	case o.tx != "":
		return printTx(w, recs, o)
	case o.failed:
		return printFailed(w, recs)
	case o.retries:
		return printRetries(w, recs)
	default:
		return span.WriteSeriesCSV(w, span.Series(recs, o.interval))
	}
}

// parseTx accepts "width:id" or a bare "id"; ids may be decimal or 0x hex.
// A width of -1 matches every width.
func parseTx(s string) (width int, id uint64, err error) {
	width = -1
	if i := strings.IndexByte(s, ':'); i >= 0 {
		w64, werr := strconv.ParseInt(s[:i], 10, 32)
		if werr != nil || w64 < 1 || w64 > frame.MaxIDBits {
			return 0, 0, fmt.Errorf("invalid -tx width %q: want 1 to %d bits", s[:i], frame.MaxIDBits)
		}
		width = int(w64)
		s = s[i+1:]
	}
	id, err = strconv.ParseUint(strings.TrimPrefix(s, "0x"), base(s), 64)
	if err != nil {
		return 0, 0, fmt.Errorf("invalid -tx identifier %q", s)
	}
	return width, id, nil
}

func base(s string) int {
	if strings.HasPrefix(s, "0x") {
		return 16
	}
	return 10
}

// index locates spans by (trial, span-index) so retry chains can be
// walked in either direction.
type index struct {
	byRef    map[string]map[int]span.Record
	children map[string]map[int][]int
}

func buildIndex(recs []span.Record) index {
	ix := index{
		byRef:    make(map[string]map[int]span.Record),
		children: make(map[string]map[int][]int),
	}
	for _, r := range recs {
		if ix.byRef[r.Trial] == nil {
			ix.byRef[r.Trial] = make(map[int]span.Record)
			ix.children[r.Trial] = make(map[int][]int)
		}
		ix.byRef[r.Trial][r.Span] = r
		if r.Parent >= 0 {
			ix.children[r.Trial][r.Parent] = append(ix.children[r.Trial][r.Parent], r.Span)
		}
	}
	return ix
}

// chainRoot walks a record's retry ancestry to the first attempt.
func (ix index) chainRoot(r span.Record) span.Record {
	for r.Parent >= 0 {
		p, ok := ix.byRef[r.Trial][r.Parent]
		if !ok {
			break
		}
		r = p
	}
	return r
}

// printTx dumps the full causal chain of every span matching the
// identifier: the whole retry lineage, each attempt's fragments with
// their channel fates, and the receiver-side events.
func printTx(w io.Writer, recs []span.Record, o options) error {
	width, id := o.txWidth, o.txID
	ix := buildIndex(recs)
	printed := make(map[string]bool) // chain roots already dumped
	matches := 0
	for _, r := range recs {
		if r.ID != id || (width > 0 && r.Width != width) {
			continue
		}
		matches++
		root := ix.chainRoot(r)
		ref := fmt.Sprintf("%s/%d", root.Trial, root.Span)
		if printed[ref] {
			continue
		}
		printed[ref] = true
		printChain(w, ix, root, 0)
		fmt.Fprintln(w)
	}
	if matches == 0 {
		return fmt.Errorf("no spans match %s", o.tx)
	}
	return nil
}

func printChain(w io.Writer, ix index, r span.Record, depth int) {
	pad := strings.Repeat("  ", depth)
	attempt := ""
	if r.Retry >= 0 {
		attempt = fmt.Sprintf("  arq-seq=%d retry=%d", r.ARQSeq, r.Retry)
	}
	fmt.Fprintf(w, "%strial %s span %d: node %d  width=%d id=0x%x  strategy=%s redraws=%d%s\n",
		pad, r.Trial, r.Span, r.Sender, r.Width, r.ID, orDash(r.Strategy), r.Redraws, attempt)
	fmt.Fprintf(w, "%s  queued %s  opened %s  closed %s  len=%d  outcome=%s\n",
		pad, ns(r.QueuedNS), ns(r.OpenedNS), ns(r.ClosedNS), r.TotalLen, r.Outcome)
	for _, f := range r.Frags {
		kind := "data "
		off := fmt.Sprintf("off=%d len=%d", f.Offset, f.Len)
		if f.Intro {
			kind = "intro"
			off = fmt.Sprintf("len=%d", f.Len)
		}
		fmt.Fprintf(w, "%s  %s at %s  %s  %s\n", pad, kind, ns(int64(f.At)), off, fragFates(f))
	}
	for _, e := range r.Events {
		fmt.Fprintf(w, "%s  event at %s  node %d  %s\n", pad, ns(int64(e.At)), e.Node, e.Kind)
	}
	kids := append([]int(nil), ix.children[r.Trial][r.Span]...)
	sort.Ints(kids)
	for _, k := range kids {
		child := ix.byRef[r.Trial][k]
		fmt.Fprintf(w, "%s  └─ retried as span %d (fresh id 0x%x)\n", pad, child.Span, child.ID)
		printChain(w, ix, child, depth+1)
	}
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

func ns(v int64) string {
	if v < 0 {
		return "-"
	}
	return time.Duration(v).String()
}

// fragFates renders a fragment's per-receiver channel fates.
func fragFates(f span.Frag) string {
	var parts []string
	add := func(n int, what string) {
		if n > 0 {
			parts = append(parts, fmt.Sprintf("%s=%d", what, n))
		}
	}
	add(f.Delivered, "delivered")
	add(f.Collided, "collided")
	add(f.RandomLoss, "lost")
	add(f.Corrupted, "corrupted")
	add(f.NotHeard, "not-heard")
	add(f.HalfDuplex, "half-duplex")
	if len(parts) == 0 {
		return "no receivers"
	}
	return strings.Join(parts, " ")
}

// printFailed groups every non-delivered span by its outcome and, within
// each group, by the dominant channel fate of its fragments — the
// root-cause view.
func printFailed(w io.Writer, recs []span.Record) error {
	type group struct {
		count  int
		causes map[string]int
		sample span.Record
	}
	groups := make(map[string]*group)
	total, failed := 0, 0
	for _, r := range recs {
		total++
		if r.Outcome == "delivered" {
			continue
		}
		failed++
		g := groups[r.Outcome]
		if g == nil {
			g = &group{causes: make(map[string]int), sample: r}
			groups[r.Outcome] = g
		}
		g.count++
		g.causes[dominantFate(r)]++
	}
	fmt.Fprintf(w, "%d spans, %d failed (%.1f%%)\n", total, failed, pct(failed, total))
	if failed == 0 {
		return nil
	}
	outcomes := make([]string, 0, len(groups))
	for o := range groups {
		outcomes = append(outcomes, o)
	}
	sort.Slice(outcomes, func(i, j int) bool {
		if groups[outcomes[i]].count != groups[outcomes[j]].count {
			return groups[outcomes[i]].count > groups[outcomes[j]].count
		}
		return outcomes[i] < outcomes[j]
	})
	for _, o := range outcomes {
		g := groups[o]
		fmt.Fprintf(w, "\n%-20s %6d (%.1f%%)  e.g. trial %s span %d\n",
			o, g.count, pct(g.count, failed), g.sample.Trial, g.sample.Span)
		causes := make([]string, 0, len(g.causes))
		for c := range g.causes {
			causes = append(causes, c)
		}
		sort.Slice(causes, func(i, j int) bool {
			if g.causes[causes[i]] != g.causes[causes[j]] {
				return g.causes[causes[i]] > g.causes[causes[j]]
			}
			return causes[i] < causes[j]
		})
		for _, c := range causes {
			fmt.Fprintf(w, "  fragments mostly %-12s %6d\n", c, g.causes[c])
		}
	}
	return nil
}

// dominantFate names the most common channel fate across a span's
// fragments, breaking ties toward the harsher fate.
func dominantFate(r span.Record) string {
	var delivered, collided, lost, corrupted, notHeard, half int
	for _, f := range r.Frags {
		delivered += f.Delivered
		collided += f.Collided
		lost += f.RandomLoss
		corrupted += f.Corrupted
		notHeard += f.NotHeard
		half += f.HalfDuplex
	}
	best, n := "never-aired", 0
	for _, c := range []struct {
		name string
		n    int
	}{
		{"collided", collided},
		{"lost", lost},
		{"corrupted", corrupted},
		{"not-heard", notHeard},
		{"half-duplex", half},
		{"delivered", delivered},
	} {
		if c.n > n {
			best, n = c.name, c.n
		}
	}
	return best
}

// printRetries histograms ARQ chain lengths: how many attempts each
// root transaction needed, and how the chains ended.
func printRetries(w io.Writer, recs []span.Record) error {
	ix := buildIndex(recs)
	type chainKey struct {
		trial string
		span  int
	}
	// Chain length per root: 1 + number of descendants.
	lengths := make(map[chainKey]int)
	ends := make(map[chainKey]string)
	for _, r := range recs {
		if r.ARQSeq < 0 {
			continue // not an ARQ transaction
		}
		root := ix.chainRoot(r)
		k := chainKey{root.Trial, root.Span}
		lengths[k]++
		if len(ix.children[r.Trial][r.Span]) == 0 {
			ends[k] = r.Outcome
		}
	}
	if len(lengths) == 0 {
		fmt.Fprintln(w, "no ARQ transactions in ledger")
		return nil
	}
	hist := make(map[int]int)
	delivered := make(map[int]int)
	maxLen := 0
	for k, n := range lengths {
		hist[n]++
		if ends[k] == "delivered" {
			delivered[n]++
		}
		if n > maxLen {
			maxLen = n
		}
	}
	fmt.Fprintf(w, "%d ARQ chains\n", len(lengths))
	fmt.Fprintf(w, "%-9s %8s %10s\n", "attempts", "chains", "delivered")
	for n := 1; n <= maxLen; n++ {
		if hist[n] == 0 {
			continue
		}
		fmt.Fprintf(w, "%-9d %8d %10d\n", n, hist[n], delivered[n])
	}
	return nil
}

func pct(n, of int) float64 {
	if of == 0 {
		return 0
	}
	return 100 * float64(n) / float64(of)
}
