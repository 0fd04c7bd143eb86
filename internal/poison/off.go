//go:build !retri_poison

package poison

// Enabled reports whether released memory is overwritten.
const Enabled = false
