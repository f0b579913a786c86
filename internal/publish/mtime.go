//go:build !(darwin || freebsd || netbsd)

package publish

import (
	"syscall"
	"time"
)

func mtime(st *syscall.Stat_t) time.Time { return time.Unix(st.Mtim.Unix()) }
