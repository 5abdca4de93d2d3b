package targetset

// TestDigests exposes the deterministic digest generator to the external
// test package. sha1x imports targetset, so the tests that run the hash
// packages' digests through a set live outside it.
var TestDigests = testDigests
