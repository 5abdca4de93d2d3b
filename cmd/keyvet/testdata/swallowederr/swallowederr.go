// Package swallowederr seeds discarded-error violations; the self-test
// loads it under a fake path inside internal/dispatch, where the rule
// applies.
package swallowederr

import "errors"

func requeue() error { return errors.New("requeue failed") }

func claim() (int, error) { return 0, errors.New("nothing to claim") }

// Drop discards errors three different ways, then handles one properly
// and suppresses one deliberately.
func Drop() int {
	requeue()       // want: swallowederr (call statement)
	_ = requeue()   // want: swallowederr (blank assignment)
	n, _ := claim() // want: swallowederr (blank in tuple)
	v, err := claim()
	if err != nil {
		n += v
	}
	//keyvet:allow swallowederr
	requeue() // suppressed
	return n
}
