// Ledger: the queryable, file-backed form of a span trace. Each trial's
// tracer is folded in trial-index order — the same capture-then-merge
// discipline as metrics.Merge — so parallel and sequential runs of the
// same seed produce byte-identical ledgers.
package span

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"retri/internal/frame"
	"retri/internal/radio"
	"retri/internal/truth"
)

// Record is the flat, serializable form of one span: everything the
// query CLI and the exporters need, with no live pointers.
type Record struct {
	Type  string `json:"type"` // "span"
	Trial string `json:"trial,omitempty"`
	Span  int    `json:"span"` // index within the trial, creation order

	Sender    radio.NodeID `json:"sender"`
	HasTruth  bool         `json:"has_truth,omitempty"`
	TruthNode uint32       `json:"truth_node,omitempty"`
	TruthSeq  uint32       `json:"truth_seq,omitempty"`

	Key      uint64 `json:"key"`
	Width    int    `json:"width"`
	ID       uint64 `json:"id"`
	Strategy string `json:"strategy,omitempty"`
	Redraws  int    `json:"redraws,omitempty"`

	ARQSeq int `json:"arq_seq"` // -1 when not an ARQ attempt
	Retry  int `json:"retry"`   // -1 when not an ARQ attempt
	Parent int `json:"parent"`  // span index of previous attempt, -1 none

	QueuedNS int64 `json:"queued_ns"` // -1 unset
	OpenedNS int64 `json:"opened_ns"` // -1 while queued
	ClosedNS int64 `json:"closed_ns"` // -1 while open

	TotalLen int    `json:"total_len"`
	State    string `json:"state"`
	Outcome  string `json:"outcome"`
	Collided bool   `json:"collided,omitempty"`
	Revives  int    `json:"revives,omitempty"`

	FragsSent        int  `json:"frags_sent"`
	Deliveries       int  `json:"deliveries,omitempty"`
	RejectedChecksum int  `json:"rejected_checksum,omitempty"`
	RejectedConflict int  `json:"rejected_conflict,omitempty"`
	Expired          int  `json:"expired,omitempty"`
	Evicted          int  `json:"evicted,omitempty"`
	BudgetExhausted  bool `json:"budget_exhausted,omitempty"`
	Anomalies        int  `json:"anomalies,omitempty"`

	Frags  []Frag  `json:"frags,omitempty"`
	Events []Event `json:"events,omitempty"`
}

// WidthRecord is the serializable form of one width-controller move.
type WidthRecord struct {
	Type  string       `json:"type"` // "width"
	Trial string       `json:"trial,omitempty"`
	AtNS  int64        `json:"at_ns"`
	Node  radio.NodeID `json:"node"`
	From  int          `json:"from"`
	To    int          `json:"to"`
}

// recordOf flattens one live span.
func recordOf(trial string, s *Span) Record {
	r := Record{
		Type:     "span",
		Trial:    trial,
		Span:     s.Index,
		Sender:   s.Sender,
		Key:      s.Key,
		Width:    s.Width,
		ID:       s.ID,
		Strategy: s.Strategy,
		Redraws:  s.Redraws,
		ARQSeq:   s.ARQSeq,
		Retry:    s.Retry,
		Parent:   s.Parent,
		QueuedNS: int64(s.QueuedAt),
		OpenedNS: -1,
		ClosedNS: -1,
		State:    s.State().String(),
		Outcome:  s.Outcome(),

		FragsSent:        s.FragsSent,
		Deliveries:       s.Deliveries,
		RejectedChecksum: s.RejectedChecksum,
		RejectedConflict: s.RejectedConflict,
		Expired:          s.Expired,
		Evicted:          s.Evicted,
		BudgetExhausted:  s.BudgetExhausted,
		Anomalies:        s.Anomalies,
		Frags:            s.Frags,
		Events:           s.Events,
	}
	if tx := s.tx; tx != nil {
		r.OpenedNS = int64(tx.OpenedAt)
		if tx.State != truth.Open {
			r.ClosedNS = int64(tx.ClosedAt)
		}
		r.TotalLen = tx.TotalLen
		r.Collided = tx.Collided
		r.Revives = tx.Revives
	}
	if s.Truth != nil {
		r.HasTruth = true
		r.TruthNode = s.Truth.Node
		r.TruthSeq = s.Truth.Seq
	}
	return r
}

// Truth reconstructs the instrumentation trailer, nil when absent.
func (r Record) Truth() *frame.Truth {
	if !r.HasTruth {
		return nil
	}
	return &frame.Truth{Node: r.TruthNode, Seq: r.TruthSeq}
}

// Ledger accumulates per-trial span traces into one queryable store.
type Ledger struct {
	records []Record
	widths  []WidthRecord
	rep     Report
	trials  int
}

// NewLedger returns an empty ledger.
func NewLedger() *Ledger { return &Ledger{} }

// AddTrial folds one trial's tracer into the ledger. Call in trial
// order; the tracer must be done (its trial's engine has drained).
func (l *Ledger) AddTrial(trial string, t *Tracer) {
	if t == nil {
		return
	}
	l.trials++
	for _, s := range t.Spans() {
		l.records = append(l.records, recordOf(trial, s))
	}
	for _, w := range t.WidthChanges() {
		l.widths = append(l.widths, WidthRecord{Type: "width", Trial: trial, AtNS: int64(w.At), Node: w.Node, From: w.From, To: w.To})
	}
	l.rep.Merge(t.Report())
}

// Records returns the folded span records in (trial, creation) order.
func (l *Ledger) Records() []Record { return l.records }

// WidthChanges returns the folded width-move records.
func (l *Ledger) WidthChanges() []WidthRecord { return l.widths }

// Report returns the lifecycle counts merged across trials.
func (l *Ledger) Report() Report { return l.rep }

// Trials returns how many trials were folded in.
func (l *Ledger) Trials() int { return l.trials }

// WriteJSONL streams the ledger as JSON Lines: one object per row,
// "type" discriminating span rows from width rows. Spans first in fold
// order, then width moves — a deterministic, grep- and jq-friendly
// layout.
func (l *Ledger) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, r := range l.records {
		if err := enc.Encode(r); err != nil {
			return err
		}
	}
	for _, wc := range l.widths {
		if err := enc.Encode(wc); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadJSONL parses a ledger written by WriteJSONL. Unknown row types
// are an error — the file is a contract, not a suggestion.
func ReadJSONL(r io.Reader) ([]Record, []WidthRecord, error) {
	var (
		recs   []Record
		widths []WidthRecord
	)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	line := 0
	for sc.Scan() {
		line++
		b := sc.Bytes()
		if len(b) == 0 {
			continue
		}
		var probe struct {
			Type string `json:"type"`
		}
		if err := json.Unmarshal(b, &probe); err != nil {
			return nil, nil, fmt.Errorf("span ledger line %d: %w", line, err)
		}
		switch probe.Type {
		case "span":
			var rec Record
			if err := json.Unmarshal(b, &rec); err != nil {
				return nil, nil, fmt.Errorf("span ledger line %d: %w", line, err)
			}
			recs = append(recs, rec)
		case "width":
			var wr WidthRecord
			if err := json.Unmarshal(b, &wr); err != nil {
				return nil, nil, fmt.Errorf("span ledger line %d: %w", line, err)
			}
			widths = append(widths, wr)
		default:
			return nil, nil, fmt.Errorf("span ledger line %d: unknown row type %q", line, probe.Type)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, nil, err
	}
	return recs, widths, nil
}
