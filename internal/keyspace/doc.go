// Package keyspace implements the candidate-key enumeration of the paper
// "Exhaustive Key Search on Clusters of GPUs" (Barbieri, Cardellini,
// Filippone; IPPS 2014), Section IV.
//
// A key space is the set of strings over a finite charset whose length lies
// in [MinLen, MaxLen]. The package provides the bijection f : N -> S of
// Figure 1, the cheap successor operator next of Figure 2, the two
// enumeration orders of equations (1) and (4) of the paper, the closed-form
// space-size formulas of equations (2) and (3), and exact interval
// arithmetic used to partition the space across computing nodes.
//
// Identifiers are 128-bit unsigned integers held by value (ID), because
// realistic spaces exceed 2^64 (62 alphanumeric symbols at lengths 1–20 is
// about 7e35, or 2^119); New refuses a space whose raw identifiers reach
// 2^128, which leaves, for example, 84 symbols at lengths 1–20 in range
// and 95 printable ones at lengths 1–19. f takes the digits of an
// identifier off a uint64 once its high word is zero, so spaces below 2^64
// never touch the 128-bit path.
package keyspace
