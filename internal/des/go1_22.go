//go:build !go1.23

package des

// The process layer (proc.go) runs on runtime coroutines through iter.Pull,
// which Go 1.23 introduced. An older toolchain stops here, with errors that
// name the requirement ahead of any others.
type (
	Proc = des_needs_a_go1_23_or_newer_toolchain
	coro = des_needs_a_go1_23_or_newer_toolchain
)
