//go:build !linux

package results

import "syscall"

// stagingSupported is false where package syscall lacks the *at calls: every
// file takes the per-file path, a temp file renamed into place.
const stagingSupported = false

func openat(int, string, int, uint32) (int, error) { return -1, syscall.ENOSYS }
func mkdirat(int, string) error                    { return syscall.ENOSYS }
