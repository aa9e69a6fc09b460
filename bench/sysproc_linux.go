package main

import "syscall"

// childAttr makes the kernel kill a child if the benchmark dies without
// reaping it (a crash in a goroutine skips every deferred stop).
func childAttr() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}
