// Package hotloop seeds every class of hot-loop violation keyvet must
// catch. It lives under testdata so the go tool ignores it; only the
// keyvet self-tests load it (with a scoped fake import path).
package hotloop

import "keysearch/internal/telemetry"

// Candidates is a worst-case hot loop: it allocates, probes a map,
// converts to a string, calls telemetry per candidate and type-asserts.
func Candidates(keys [][]byte, reg *telemetry.Registry, weights map[string]int, v interface{}) int {
	n := 0
	//keyvet:hotloop
	for _, k := range keys {
		buf := make([]byte, len(k)) // want: make allocates
		copy(buf, k)
		n += weights[string(k)]                       // want: map access + string conversion
		reg.Counter(telemetry.MetricCoreTested).Inc() // want: telemetry x2 (Counter, Inc)
		if b, ok := v.([]byte); ok {                  // want: type assertion
			n += len(b)
		}
	}
	// An unannotated loop is not checked, however dirty.
	for _, k := range keys {
		n += len(string(k))
	}
	return n
}

// Allowed shows //keyvet:allow suppressing the rare-path allocations.
func Allowed(keys [][]byte) [][]byte {
	var out [][]byte
	//keyvet:hotloop
	for _, k := range keys {
		cp := make([]byte, len(k)) //keyvet:allow hotloop
		copy(cp, k)
		out = append(out, cp) //keyvet:allow hotloop
	}
	return out
}
