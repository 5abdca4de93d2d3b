//go:build !amd64

package md5x

// useAVX2 is false off amd64: SearchRun screens two candidates at a time
// with screen2.
var useAVX2 = false

func screen16(*ReverseContext, *[16]uint32) uint {
	panic("md5x: screen16 is amd64 assembly")
}
