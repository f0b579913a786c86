package results

import "syscall"

// stagingSupported says the *at calls a run's staging directory is filled
// with are there: fresh experiments commit each run as one directory.
const stagingSupported = true

func openat(dirfd int, path string, flags int, mode uint32) (int, error) {
	return syscall.Openat(dirfd, path, flags, mode)
}

func mkdirat(dirfd int, path string) error { return syscall.Mkdirat(dirfd, path, 0o755) }
