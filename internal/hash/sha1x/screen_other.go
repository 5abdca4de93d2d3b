//go:build !amd64

package sha1x

// Off amd64 hostcpu.Best is LevelGo, so SearchRun runs finalE on every
// candidate and never calls these.
func screen16(*RunSearcher, *[16]uint32, *[16]uint32, uint32, uint32, int32) uint {
	panic("sha1x: screen16 is amd64 assembly")
}

func screen16Z(*RunSearcher, *[16]uint32, *[16]uint32, uint32, uint32, int32) uint {
	panic("sha1x: screen16Z is amd64 assembly")
}
