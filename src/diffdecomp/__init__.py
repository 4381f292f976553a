"""Physics-guided decomposition of feature-difference fields.

The package splits a multi-channel difference field D into a change part C
and a nuisance part N with a small unrolled solver, guided by patch-wise
singular-value entropy, wavelet subband alignment, and a staged regularizer.
Everything is plain float64 numpy and deterministic under seeded
counter-based RNG streams.  There is no flat API: import the submodules.
"""

from .csvio import TOOL_VERSION as __version__
