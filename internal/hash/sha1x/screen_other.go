//go:build !amd64

package sha1x

// Off amd64 hostcpu.AVX2 is false, so SearchRun runs finalE on every
// candidate and never calls this.
func screen16(*RunSearcher, *[16]uint32, *[16]uint32) {
	panic("sha1x: screen16 is amd64 assembly")
}
