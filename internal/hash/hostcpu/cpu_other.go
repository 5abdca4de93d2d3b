//go:build !amd64

package hostcpu

func hasAVX2() bool { return false }

func hasAVX512() bool { return false }
