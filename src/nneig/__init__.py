"""Nonnegative low-rank eigenpair approximation for matrix-valued operators.

The package computes the rightmost eigenpair of positivity-preserving
linear operators on matrices, constraining the eigenmatrix to be
entrywise nonnegative and of low rank.  It ships the factored
sphere-flow integrator (``nneig.solvers.rneg_solve``), dense and factored
operator types for Markov transition grids and Metzler growth-diffusion
operators (``nneig.operators``, ``nneig.markovgrid``), classical baselines
(Krylov reference, truncated SVD, HALS NMF, projector-splitting
integrator), and a benchmark harness (``nneig.bench``) with a small CLI
(``python -m nneig``).  Import the names from those submodules.
"""

__version__ = "0.1.0"
