"""Deterministic simulator for a four-level diamond atomic system.

Four levels a, b, c, d are coupled by up to four coherent drive fields on
the transitions b-a, b-d, c-a, c-d, with spontaneous decay c->a, c->d,
a->b, d->b.  The package computes drive eigenvalues with dark-state
classification, Lindblad steady states, time evolution, and probe-detuning
sweeps with transparency-window and gain detection.  All numerics are
deterministic: LAPACK's zheevd eigensolver and a hand-written Gaussian
elimination, with no randomized or environment-dependent behavior.

Names are imported from their submodules (diamondsim.sweep.run_sweep, ...).
Importing the package loads the numeric core; the command line lives in
diamondsim.cli and is loaded only when imported.
"""

from . import algebra, atom, dressed, errors, lindblad, sweep

__version__ = "0.1.0"
