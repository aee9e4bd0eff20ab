package metrics

import (
	"fmt"
	"io"
	"strings"
)

// promName sanitizes a registered metric name into a legal Prometheus
// metric name and applies the family prefix: dots and every other
// character outside [a-zA-Z0-9_] become underscores.
func promName(prefix, name string) string {
	var b strings.Builder
	b.Grow(len(prefix) + 1 + len(name))
	b.WriteString(prefix)
	b.WriteByte('_')
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z',
			c >= '0' && c <= '9', c == '_':
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// WriteProm writes the snapshot in the Prometheus text exposition
// format (one family per metric, prefixed with prefix): counters as
// counter families and histograms as native Prometheus histograms with cumulative le
// buckets. Output order follows the snapshot's sorted order, so equal
// snapshots encode identically — the /metrics endpoint is deterministic
// for a quiesced server.
func (s Snapshot) WriteProm(w io.Writer, prefix string) error {
	for _, c := range s.Counters {
		name := promName(prefix, c.Name)
		if _, err := fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", name, name, c.Value); err != nil {
			return err
		}
	}
	for _, h := range s.Hists {
		name := promName(prefix, h.Name)
		if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", name); err != nil {
			return err
		}
		cum := uint64(0)
		for i, bound := range h.Bounds {
			cum += h.Counts[i]
			if _, err := fmt.Fprintf(w, "%s_bucket{le=\"%d\"} %d\n", name, bound, cum); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n%s_sum %d\n%s_count %d\n",
			name, h.Count, name, h.Sum, name, h.Count); err != nil {
			return err
		}
	}
	return nil
}
