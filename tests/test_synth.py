"""Generator invariants: exact additivity, seed determinism, label support,
and the planted entropy prior."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from diffdecomp import rng
from diffdecomp.core import ConfigError, PatchLayout
from diffdecomp.sve import patch_entropies
from diffdecomp.synth import SynthSpec, _patch_groups, gen_bitemporal, gen_instance
from diffdecomp.wavelet import dwt2_haar


def test_additivity_bit_exact():
    inst = gen_instance(SynthSpec(seed=123))
    assert np.array_equal(inst.dfield, inst.c_star + inst.n_star)


def test_seed_determinism():
    spec = SynthSpec(seed=9)
    a = gen_instance(spec)
    b = gen_instance(spec)
    for name in ("dfield", "c_star", "n_star", "labels"):
        assert np.array_equal(getattr(a, name), getattr(b, name))
    c = gen_instance(spec.with_seed(10))
    assert not np.array_equal(a.dfield, c.dfield)


def test_no_rectangles_pure_nuisance():
    inst = gen_instance(SynthSpec(seed=3, rectangles=()))
    assert np.array_equal(inst.c_star, np.zeros_like(inst.c_star))
    assert np.array_equal(inst.labels, np.zeros_like(inst.labels))
    assert np.array_equal(inst.dfield, inst.n_star)
    assert inst.changed_patches == ()
    assert len(inst.unchanged_patches) == 16


def test_pure_change_instance():
    spec = SynthSpec(seed=4, rectangles=((8, 8, 8, 8),), noise_sigma=0.0, nuisance_amplitude=0.0)
    inst = gen_instance(spec)
    assert np.array_equal(inst.dfield, inst.c_star)
    # unchanged patches carry nothing at all
    for j in inst.unchanged_patches:
        rs, cs = inst.layout.slices(j)
        assert np.all(inst.dfield[:, rs, cs] == 0.0)
    assert inst.changed_patches == (5,)


def test_label_support_consistency():
    inst = gen_instance(SynthSpec(seed=11))
    outside = inst.labels[None, :, :] == 0.0
    assert np.all(inst.c_star[np.broadcast_to(outside, inst.c_star.shape)] == 0.0)


def test_patch_groups_partition():
    inst = gen_instance(SynthSpec(seed=2))
    merged = sorted(inst.changed_patches + inst.unchanged_patches)
    assert merged == list(range(inst.layout.n_patches))
    for j in inst.changed_patches:
        rs, cs = inst.layout.slices(j)
        assert np.any(inst.labels[rs, cs] > 0.0)


def test_default_seed7_entropy_gap():
    inst = gen_instance(SynthSpec(seed=7))
    ent = patch_entropies(inst.dfield, 8)
    gap = np.mean(ent[list(inst.changed_patches)]) - np.mean(ent[list(inst.unchanged_patches)])
    assert gap > 0.0


def test_planted_prior_over_20_seeds():
    for seed in range(20):
        inst = gen_instance(SynthSpec(seed=seed))
        ent = patch_entropies(inst.dfield, 8)
        gap = np.mean(ent[list(inst.changed_patches)]) - np.mean(
            ent[list(inst.unchanged_patches)]
        )
        assert gap > 0.0, f"seed {seed}"


def test_rectangle_bounds_checked():
    with pytest.raises(ConfigError):
        gen_instance(SynthSpec(rectangles=((28, 28, 8, 8),)))
    with pytest.raises(ConfigError):
        gen_instance(SynthSpec(rectangles=((-1, 0, 4, 4),)))
    with pytest.raises(ConfigError):
        gen_instance(SynthSpec(rectangles=((0, 0, 0, 4),)))


def test_negative_amplitude_rejected():
    with pytest.raises(ConfigError):
        gen_instance(SynthSpec(noise_sigma=-0.1))


def test_patch_divisibility_enforced():
    with pytest.raises(ConfigError):
        gen_instance(SynthSpec(height=30))


# ---------------------------------------------------------------- bitemporal


def test_bitemporal_no_offset_no_change_identical():
    spec = SynthSpec(seed=5, rectangles=(), illumination=0.0)
    pair = gen_bitemporal(spec)
    assert np.array_equal(pair.f1, pair.f2)


def test_bitemporal_offset_only_is_constant_difference():
    spec = SynthSpec(seed=5, rectangles=(), illumination=0.3)
    pair = gen_bitemporal(spec)
    diff = pair.f2 - pair.f1
    assert np.max(np.abs(diff - 0.3)) < 1e-12
    sb = dwt2_haar(diff)
    assert np.max(np.abs(sb.a - 0.6)) < 1e-12
    for band in (sb.h, sb.v, sb.d):
        assert np.max(np.abs(band)) < 1e-12


def test_bitemporal_determinism_and_change_support():
    spec = SynthSpec(seed=6)
    a = gen_bitemporal(spec)
    b = gen_bitemporal(spec)
    assert np.array_equal(a.f1, b.f1) and np.array_equal(a.f2, b.f2)
    diff = a.f2 - a.f1
    # off-support difference is the pure offset
    off = a.labels[None, :, :] == 0.0
    mask = np.broadcast_to(off, diff.shape)
    assert np.max(np.abs(diff[mask] - spec.illumination)) < 1e-12


@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_additivity_property(seed):
    inst = gen_instance(SynthSpec(seed=seed, height=16, width=16, rectangles=((2, 2, 6, 6),)))
    assert np.array_equal(inst.dfield, inst.c_star + inst.n_star)


# ---------------------------------------------------------------- reference draw


def _raised_cosine(n, phase):
    return 0.5 * (1.0 - np.cos(2.0 * np.pi * (np.arange(n, dtype=np.float64) / n + phase)))


def reference_draw(spec):
    """(labels, change, background) by the documented construction: texture
    from normals stream 1, noise from normals stream 2, sheet phases from
    uniforms stream 3."""
    shape = (spec.channels, spec.height, spec.width)
    labels = np.zeros((spec.height, spec.width))
    for r0, c0, hh, ww in spec.rectangles:
        labels[r0 : r0 + hh, c0 : c0 + ww] = 1.0
    change = spec.change_amplitude * rng.normals(spec.seed, 1, shape) * labels
    phases = rng.uniforms(spec.seed, 3, 2)
    sheet = spec.nuisance_amplitude * np.outer(
        _raised_cosine(spec.height, phases[0]), _raised_cosine(spec.width, phases[1])
    )
    background = sheet + spec.noise_sigma * rng.normals(spec.seed, 2, shape)
    return labels, change, background


REFERENCE_SPECS = [
    SynthSpec(seed=0),
    SynthSpec(seed=1, rectangles=()),
    SynthSpec(seed=2, rectangles=((0, 0, 32, 32),), illumination=0.0),
    SynthSpec(seed=3, channels=3, height=16, width=24, patch_side=4,
              rectangles=((2, 2, 6, 6), (4, 5, 9, 3)), illumination=-0.7),
    SynthSpec(seed=2**40, channels=1, noise_sigma=0.0, change_amplitude=2.5),
]


@pytest.mark.parametrize("spec", REFERENCE_SPECS)
def test_generators_match_reference_draw(spec):
    labels, change, background = reference_draw(spec)
    inst = gen_instance(spec)
    assert np.array_equal(inst.labels, labels)
    assert np.array_equal(inst.c_star, change)
    assert np.array_equal(inst.n_star, background)
    assert np.array_equal(inst.dfield, change + background)
    pair = gen_bitemporal(spec)
    assert np.array_equal(pair.labels, labels)
    assert np.array_equal(pair.f1, background)
    assert np.array_equal(pair.f2, background + spec.illumination + change)
    assert pair.changed_patches == inst.changed_patches
    assert pair.unchanged_patches == inst.unchanged_patches


def loop_patch_groups(labels, layout):
    changed, unchanged = [], []
    for j in range(layout.n_patches):
        rs, cs = layout.slices(j)
        (changed if np.any(labels[rs, cs] > 0.0) else unchanged).append(j)
    return tuple(changed), tuple(unchanged)


@pytest.mark.parametrize("kind", ["random", "empty", "full", "pixel"])
def test_patch_groups_match_per_patch_loop(kind):
    layout = PatchLayout.for_shape(24, 32, 8)
    labels = np.zeros((24, 32))
    if kind == "random":
        # mostly negative, so about half the patches hold no positive entry
        labels = np.random.default_rng(5).random((24, 32)) - 0.99
    elif kind == "full":
        labels[:] = 1.0
    elif kind == "pixel":
        labels[13, 21] = 1.0
    groups = _patch_groups(labels, layout)
    assert groups == loop_patch_groups(labels, layout)
    assert all(type(j) is int for group in groups for j in group)
    if kind == "random":
        assert groups[0] and groups[1]
