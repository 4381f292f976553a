"""Single-level 2-D Haar analysis and cross-image subband alignment."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ConfigError, as_field, channel_map

__all__ = [
    "Subbands",
    "AlignParams",
    "dwt2_haar",
    "idwt2_haar",
    "align_subbands",
    "suppress_pair",
]


@dataclass(frozen=True)
class Subbands:
    """Orthonormal single-level Haar subbands of a feature field.

    Each array has shape (channels, H/2, W/2).  ``a`` is the average band,
    ``h`` the horizontal detail (responds to horizontal stripes), ``v`` the
    vertical detail, ``d`` the diagonal detail.
    """

    a: np.ndarray
    h: np.ndarray
    v: np.ndarray
    d: np.ndarray

    def energy(self) -> float:
        return float(sum(np.sum(np.square(b)) for b in (self.a, self.h, self.v, self.d)))


def dwt2_haar(x) -> Subbands:
    """Orthonormal single-level Haar transform of a (d, H, W) field.

    Each disjoint 2x2 pixel block ``[[p, q], [r, s]]`` maps to

        a = (p + q + r + s) / 2      h = (p + q - r - s) / 2
        v = (p - q + r - s) / 2      d = (p - q - r + s) / 2

    which preserves energy exactly (the four basis vectors are orthonormal).
    Height and width must be even.
    """
    x = as_field(x, "dwt2_haar")
    if x.shape[1] % 2 or x.shape[2] % 2:
        raise ConfigError(f"dwt2_haar: height and width must be even, got {x.shape}")
    p = x[:, 0::2, 0::2]
    q = x[:, 0::2, 1::2]
    r = x[:, 1::2, 0::2]
    s = x[:, 1::2, 1::2]
    return Subbands(
        a=(p + q + r + s) / 2.0,
        h=(p + q - r - s) / 2.0,
        v=(p - q + r - s) / 2.0,
        d=(p - q - r + s) / 2.0,
    )


def idwt2_haar(sb: Subbands) -> np.ndarray:
    """Invert :func:`dwt2_haar` (exact up to float64 rounding)."""
    a, h, v, d = (np.asarray(b, dtype=np.float64) for b in (sb.a, sb.h, sb.v, sb.d))
    if not (a.shape == h.shape == v.shape == d.shape) or a.ndim != 3:
        raise ConfigError("idwt2_haar: subbands must share one (channels, H/2, W/2) shape")
    ch, hh, hw = a.shape
    out = np.empty((ch, 2 * hh, 2 * hw), dtype=np.float64)
    out[:, 0::2, 0::2] = (a + h + v + d) / 2.0
    out[:, 0::2, 1::2] = (a + h - v - d) / 2.0
    out[:, 1::2, 0::2] = (a - h + v - d) / 2.0
    out[:, 1::2, 1::2] = (a - h - v + d) / 2.0
    return out


@dataclass
class AlignParams:
    """Per-subband cross-image suppression strengths and channel maps.

    For a subband pair (S1, S2) the correction ``t = eta * psi @ (S1 - S2)``
    is subtracted from S1 and added to S2, so the per-entry sum S1 + S2 is an
    algebraic invariant.  ``eta = 0.5`` with an identity map equalises the two
    subbands (their difference becomes exactly zero); ``eta = 1`` swaps them.
    ``psi_*`` are (channels, channels) maps applied per pixel.
    """

    eta_a: float
    eta_h: float
    eta_v: float
    eta_d: float
    psi_a: np.ndarray
    psi_h: np.ndarray
    psi_v: np.ndarray
    psi_d: np.ndarray

    @classmethod
    def identity(cls, channels: int, eta_a: float = 0.5, eta_detail: float = 0.1) -> "AlignParams":
        """Default initialisation: identity maps, average band suppressed hardest."""
        eye = np.eye(int(channels), dtype=np.float64)
        return cls(
            eta_a=float(eta_a),
            eta_h=float(eta_detail),
            eta_v=float(eta_detail),
            eta_d=float(eta_detail),
            psi_a=eye.copy(),
            psi_h=eye.copy(),
            psi_v=eye.copy(),
            psi_d=eye.copy(),
        )

    def bands(self):
        return (
            ("a", self.eta_a, self.psi_a),
            ("h", self.eta_h, self.psi_h),
            ("v", self.eta_v, self.psi_v),
            ("d", self.eta_d, self.psi_d),
        )


def align_subbands(s1: Subbands, s2: Subbands, params: AlignParams):
    """Move each subband pair toward each other by an equal-and-opposite correction.

    Returns ``(s1_hat, s2_hat)`` with, per band,

        s1_hat = s1 - eta * psi @ (s1 - s2)
        s2_hat = s2 + eta * psi @ (s1 - s2)

    The correction tensor is computed once per band and applied with opposite
    signs, so ``s1_hat + s2_hat`` equals ``s1 + s2`` entry-wise (exactly, when
    the inputs and parameters make the arithmetic exact; to float64 rounding
    otherwise).
    """
    out1 = {}
    out2 = {}
    for name, eta, psi in params.bands():
        b1 = np.asarray(getattr(s1, name), dtype=np.float64)
        b2 = np.asarray(getattr(s2, name), dtype=np.float64)
        if b1.shape != b2.shape:
            raise ConfigError(f"subband {name}: shapes {b1.shape} and {b2.shape} differ")
        psi = np.asarray(psi, dtype=np.float64)
        if psi.ndim != 2 or psi.shape[0] != psi.shape[1]:
            raise ConfigError(f"subband {name}: channel map of shape {psi.shape} is not square")
        t = float(eta) * channel_map(psi, b1 - b2)
        out1[name] = b1 - t
        out2[name] = b2 + t
    return Subbands(**out1), Subbands(**out2)


def suppress_pair(x1, x2, params: AlignParams):
    """Haar-align a pair of fields: transform, align each subband pair, invert."""
    s1 = dwt2_haar(x1)
    s2 = dwt2_haar(x2)
    a1, a2 = align_subbands(s1, s2, params)
    return idwt2_haar(a1), idwt2_haar(a2)
