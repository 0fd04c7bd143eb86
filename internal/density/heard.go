package density

import "time"

// heard is one identifier and the last time a fragment carrying it arrived.
type heard struct {
	id uint64
	at time.Duration
}

// heardSet is the set of identifiers heard within an idle gap, shared by
// the fragment-sampled estimators. It is a plain slice scanned linearly: a
// 40 kbit/s channel carries one ~6 ms frame at a time, so only tens of
// identifiers can be heard within a 100 ms idle gap, and a scan over that
// few entries beats a map's hashing and iteration on every fragment.
type heardSet []heard

// observe drops identifiers unheard for longer than idleGap at time t and
// marks id heard at t, in one in-place pass.
func (s *heardSet) observe(id uint64, t, idleGap time.Duration) {
	kept := (*s)[:0]
	found := false
	for _, h := range *s {
		if h.id == id {
			h.at, found = t, true
		}
		if t-h.at <= idleGap {
			kept = append(kept, h)
		}
	}
	if !found {
		kept = append(kept, heard{id: id, at: t})
	}
	*s = kept
}

// expire drops identifiers unheard for longer than idleGap at time t.
func (s *heardSet) expire(t, idleGap time.Duration) {
	kept := (*s)[:0]
	for _, h := range *s {
		if t-h.at <= idleGap {
			kept = append(kept, h)
		}
	}
	*s = kept
}

// remove drops id and reports whether it was present.
func (s *heardSet) remove(id uint64) bool {
	for i, h := range *s {
		if h.id == id {
			last := len(*s) - 1
			(*s)[i] = (*s)[last]
			*s = (*s)[:last]
			return true
		}
	}
	return false
}
