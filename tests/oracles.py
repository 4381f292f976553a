"""Independent reimplementations used as test oracles.

Everything here favours directness over speed: explicit window sums for the
convolution, LAPACK SVD for the patch entropies, an exhaustive line search
for the closure distance.  No code is shared with the package beyond plain
attribute access on its parameter objects.
"""

import numpy as np


def gram_singular_values(mat):
    """Singular values via eigenvalues of the smaller Gram matrix."""
    a = np.asarray(mat, dtype=np.float64)
    gram = a @ a.T if a.shape[0] <= a.shape[1] else a.T @ a
    lam = np.linalg.eigvalsh(gram)
    return np.sqrt(np.clip(lam, 0.0, None))[::-1]


def stable_sigmoid(x):
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def reflect_pad(x):
    """Mirror padding by one pixel, border pixel not repeated."""
    d, h, w = x.shape
    pad = np.zeros((d, h + 2, w + 2), dtype=np.float64)
    pad[:, 1:-1, 1:-1] = x
    pad[:, 0, 1:-1] = x[:, 1, :]
    pad[:, -1, 1:-1] = x[:, -2, :]
    pad[:, :, 0] = pad[:, :, 2]
    pad[:, :, -1] = pad[:, :, -3]
    return pad


def conv3x3_window_sums(x, w):
    """out[o, i, j] = sum over the 3x3 window of w[o] * padded x."""
    x = np.asarray(x, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    pad = reflect_pad(x)
    out = np.zeros((w.shape[0], x.shape[1], x.shape[2]), dtype=np.float64)
    for o in range(w.shape[0]):
        for i in range(x.shape[1]):
            for j in range(x.shape[2]):
                out[o, i, j] = np.sum(w[o] * pad[:, i : i + 3, j : j + 3])
    return out


def entropy_plane_lapack(reduced, patch_side, epsilon):
    """Per-patch spectrum entropy via np.linalg.svd, broadcast to pixels."""
    rc, h, w = reduced.shape
    plane = np.zeros((h, w), dtype=np.float64)
    for pi in range(h // patch_side):
        for pj in range(w // patch_side):
            rs = slice(pi * patch_side, (pi + 1) * patch_side)
            cs = slice(pj * patch_side, (pj + 1) * patch_side)
            block = reduced[:, rs, cs].reshape(rc, -1)
            sv = np.linalg.svd(block, compute_uv=False)
            total = float(np.sum(sv))
            if total <= epsilon:
                p = np.full(sv.shape, 1.0 / sv.size)
            else:
                p = sv / total
            plane[rs, cs] = -np.sum(p * np.log(p + epsilon))
    return plane


def gate_plane_oracle(residual, gate_params):
    reduced = np.einsum("rc,chw->rhw", gate_params.reducer, np.abs(residual))
    ent = entropy_plane_lapack(reduced, gate_params.patch_side, gate_params.epsilon)
    return stable_sigmoid(gate_params.scale * ent + gate_params.shift)


def gru_oracle(x, h, cell):
    xh = np.concatenate([x, h], axis=0)
    z = stable_sigmoid(np.einsum("oc,chw->ohw", cell.w_z, xh) + cell.b_z[:, None, None])
    r = stable_sigmoid(np.einsum("oc,chw->ohw", cell.w_r, xh) + cell.b_r[:, None, None])
    xrh = np.concatenate([x, r * h], axis=0)
    cand = np.tanh(np.einsum("oc,chw->ohw", cell.w_c, xrh) + cell.b_c[:, None, None])
    return (1.0 - z) * h + z * cand


def step_oracle(dfield, c, n, mem_c, mem_n, params, k):
    """One solver step written out straight-line; returns (c, n, mem_c, mem_n, gate)."""
    dfield = np.asarray(dfield, dtype=np.float64)
    residual = dfield - (c + n)
    stacked = np.concatenate([c, n, residual], axis=0)
    draft_c = conv3x3_window_sums(stacked, params.phi_c)
    draft_n = conv3x3_window_sums(stacked, params.phi_n)
    prov_c = c + params.alpha[k] * draft_c
    prov_n = n + params.beta[k] * draft_n
    inj_c = params.gamma[k] * np.einsum("oc,chw->ohw", params.psi_c, residual)
    inj_n = params.gamma[k] * np.einsum("oc,chw->ohw", params.psi_n, residual)
    if params.memory_bypass:
        new_mem_c, new_mem_n = prov_c, prov_n
    else:
        new_mem_c = gru_oracle(prov_c, mem_c, params.mem_c)
        new_mem_n = gru_oracle(prov_n, mem_n, params.mem_n)
    if params.gate_bypass:
        gate = np.ones(dfield.shape[1:], dtype=np.float64)
    else:
        gate = gate_plane_oracle(residual, params.gate)
    return (
        new_mem_c + gate[None, :, :] * inj_c,
        new_mem_n + gate[None, :, :] * inj_n,
        new_mem_c,
        new_mem_n,
        gate,
    )


def run_oracle(dfield, params):
    """Unroll all steps from (C, N, mems) = (0, D, 0); returns the state tuples."""
    dfield = np.asarray(dfield, dtype=np.float64)
    c = np.zeros_like(dfield)
    n = dfield.copy()
    mem_c = np.zeros_like(dfield)
    mem_n = np.zeros_like(dfield)
    states = [(c, n, mem_c, mem_n)]
    for k in range(params.steps):
        c, n, mem_c, mem_n, _gate = step_oracle(dfield, c, n, mem_c, mem_n, params, k)
        states.append((c, n, mem_c, mem_n))
    return states


def closure_distance_line_search(dfield, c, n, span=4.0, points=200_001):
    """Brute-force distance from (C, N) to the closure set {C' + N' = D}.

    Any feasible point is (C + R - T, N + T) for the residual R and a free
    field T; the squared distance ||R - T||^2 + ||T||^2 is minimised on the
    line T = t * R (cross terms vanish for components orthogonal to R), so a
    dense scan over t brackets the true minimum.
    """
    r = np.asarray(dfield, dtype=np.float64) - (
        np.asarray(c, dtype=np.float64) + np.asarray(n, dtype=np.float64)
    )
    rnorm = float(np.sqrt(np.sum(r * r)))
    ts = np.linspace(-span, span, points)
    dist_sq = (1.0 - ts) ** 2 * rnorm**2 + ts**2 * rnorm**2
    return float(np.sqrt(np.min(dist_sq)))


def vector_loss(loss_fn):
    """``loss_fn``, a scalar function of the whole vector, as a coordinate loss."""

    def loss(theta, i, value):
        moved = theta.copy()
        moved[i] = value
        return loss_fn(moved)

    return loss
