//go:build !amd64

package md5x

// Off amd64 hostcpu.Best is LevelGo, so SearchRun screens two candidates
// at a time with screen2 and never calls these.
func screen16(*ReverseContext, *[32]uint32, *[32]uint32, uint32, uint32, int32) uint {
	panic("md5x: screen16 is amd64 assembly")
}

func screen32(*ReverseContext, *[32]uint32, *[32]uint32, uint32, uint32, int32) uint {
	panic("md5x: screen32 is amd64 assembly")
}
