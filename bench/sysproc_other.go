//go:build !linux

package main

import "syscall"

// childAttr has no parent-death signal to set outside Linux.
func childAttr() *syscall.SysProcAttr { return nil }
