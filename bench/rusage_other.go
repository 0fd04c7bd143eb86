//go:build !unix

package bench

import "os"

// maxRSSBytes is unavailable off unix; peak_rss_mb then reads 0.
func maxRSSBytes(*os.ProcessState) float64 { return 0 }
