// Package core implements the exhaustive-search parallelization pattern of
// Section III of "Exhaustive Key Search on Clusters of GPUs" (IPPS 2014).
//
// The pattern requires three ingredients (§III.A):
//
//   - a bijection f from the naturals onto the candidate set S, embodied by
//     the Enumerator interface (Seek positions at f(i));
//   - a cheap successor operator next with next(i, f(i)) = f(i+1), embodied
//     by Enumerator.Next;
//   - a test function C : S -> {0,1}, embodied by TestFunc.
//
// On top of those the package provides:
//
//   - Search, a multi-worker engine that partitions an identifier interval
//     into chunks, walks each chunk with the next operator, and supports
//     early termination, exact accounting of the number of candidates
//     tested, and a Live handle through which a caller follows the
//     tested prefix and shrinks the interval while the search runs —
//     candidate by candidate (SearchEach), or a prefix-major run at a
//     time for kernels that enumerate a run's varying bytes themselves
//     (SearchRuns);
//   - the cost model of §III.A (CostModel, DispatchCost) with the
//     K_f / K_next / K_C decomposition and the dispatch bounds on K_D;
//   - the load-balancing rule of the paper (Balance): given per-node tuning
//     results (minimum efficient batch n_j, peak throughput X_j), compute
//     workloads N_j = N_max · X_j / X_max so that all nodes finish together
//     at their target efficiency.
//
// The package is deliberately independent of what is being searched: any
// Factory over a bijective f(i) fits the pattern. Password cracking
// (internal/cracker) and the simulated GPU cluster (internal/dispatch)
// build on it.
package core
