package results

import "testing"

// SetFSHook installs fn as the store's fault hook until t ends, for the
// tests outside the package that drive the store through its users.
func SetFSHook(t *testing.T, fn func(op, path string) error) { setFSHook(t, fn) }
