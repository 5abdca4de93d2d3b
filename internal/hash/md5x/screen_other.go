//go:build !amd64

package md5x

// Off amd64 hostcpu.AVX2 is false, so SearchRun screens two candidates at
// a time with screen2 and never calls this.
func screen16(*ReverseContext, *[16]uint32) uint {
	panic("md5x: screen16 is amd64 assembly")
}
