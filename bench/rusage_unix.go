//go:build unix

package bench

import (
	"os"
	"runtime"
	"syscall"
)

// maxRSSBytes is a finished child's peak resident set size.
func maxRSSBytes(ps *os.ProcessState) float64 {
	ru, ok := ps.SysUsage().(*syscall.Rusage)
	if !ok {
		return 0
	}
	// Linux reports kilobytes; Darwin reports bytes.
	if runtime.GOOS == "darwin" {
		return float64(ru.Maxrss)
	}
	return float64(ru.Maxrss) * 1024
}
