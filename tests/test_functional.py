"""Array-level building blocks: im2col/col2im, softmax, one-hot."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.nn import functional as F
from repro.nn.layers.pooling import AvgPool2d
from repro.nn.losses import CrossEntropyLoss
from repro.nn.models import lenet
from repro.nn.module import Sequential
from repro.utils.rng import RngStream


def _reference_indices(channels, height, width, kernel, stride):
    """Fancy-index gather indices of the reference kernels below."""
    kh, kw = kernel
    out_h = (height - kh) // stride + 1
    out_w = (width - kw) // stride + 1
    c_idx = np.repeat(np.arange(channels), kh * kw).reshape(-1, 1)
    kh_idx = np.tile(np.repeat(np.arange(kh), kw), channels).reshape(-1, 1)
    kw_idx = np.tile(np.arange(kw), channels * kh).reshape(-1, 1)
    oh_idx = stride * np.repeat(np.arange(out_h), out_w).reshape(1, -1)
    ow_idx = stride * np.tile(np.arange(out_w), out_h).reshape(1, -1)
    return c_idx, kh_idx + oh_idx, kw_idx + ow_idx, out_h, out_w


def _reference_im2col(x, kernel, stride=1, padding=0):
    """Oracle: fancy-index gather over the padded input."""
    x = F.pad2d(x, padding)
    n, c, h, w = x.shape
    c_idx, rows, cols_idx, out_h, out_w = _reference_indices(
        c, h, w, kernel, stride
    )
    patches = x[:, c_idx, rows, cols_idx]  # (N, C*kh*kw, out_h*out_w)
    cols = patches.transpose(1, 0, 2).reshape(patches.shape[1], -1)
    return np.ascontiguousarray(cols), out_h, out_w


def _reference_col2im(cols, x_shape, kernel, stride=1, padding=0):
    """Oracle: ``np.add.at`` scatter onto the padded image."""
    n, c, h, w = x_shape
    hp, wp = h + 2 * padding, w + 2 * padding
    c_idx, rows, cols_idx, out_h, out_w = _reference_indices(
        c, hp, wp, kernel, stride
    )
    patches = cols.reshape(cols.shape[0], n, out_h * out_w).transpose(1, 0, 2)
    out = np.zeros((n, c, hp, wp), dtype=cols.dtype)
    np.add.at(out, (slice(None), c_idx, rows, cols_idx), patches)
    return F.unpad2d(out, padding)


def _tricky_values(gen, shape, dtype):
    """Order-sensitive values: wide magnitudes, ties, and signed zeros."""
    values = gen.normal(size=shape) * 10.0 ** gen.uniform(-4, 4, size=shape)
    ties = gen.choice([-0.0, 0.0, 1.0, -1.0, 0.5], size=shape)
    return np.where(gen.random(shape) < 0.4, ties, values).astype(dtype)


def test_conv_output_size():
    assert F.conv_output_size(28, 5, 1, 2) == 28
    assert F.conv_output_size(28, 2, 2, 0) == 14
    with pytest.raises(ValueError):
        F.conv_output_size(3, 5, 1, 0)


def test_im2col_matches_naive_convolution(rng):
    """Convolution via im2col equals the direct nested-loop definition."""
    x = rng.child("x").normal(size=(2, 3, 6, 7))
    w = rng.child("w").normal(size=(4, 3, 3, 3))
    stride, padding = 2, 1
    cols, out_h, out_w = F.im2col(x, (3, 3), stride=stride, padding=padding)
    out = (w.reshape(4, -1) @ cols).reshape(4, 2, out_h, out_w).transpose(1, 0, 2, 3)

    xp = F.pad2d(x, padding)
    want = np.zeros_like(out)
    for n in range(2):
        for f in range(4):
            for i in range(out_h):
                for j in range(out_w):
                    patch = xp[n, :, i * stride : i * stride + 3,
                               j * stride : j * stride + 3]
                    want[n, f, i, j] = (patch * w[f]).sum()
    np.testing.assert_allclose(out, want, rtol=1e-6, atol=1e-6)


def test_col2im_is_adjoint_of_im2col(rng):
    """<im2col(x), y> == <x, col2im(y)> — the defining adjoint property."""
    x = rng.child("x").normal(size=(2, 2, 5, 5))
    cols, _, _ = F.im2col(x, (3, 3), stride=1, padding=1)
    y = rng.child("y").normal(size=cols.shape)
    lhs = float((cols * y).sum())
    back = F.col2im(y, x.shape, (3, 3), stride=1, padding=1)
    rhs = float((x * back).sum())
    assert lhs == pytest.approx(rhs, rel=1e-10)


@settings(max_examples=20, deadline=None)
@given(
    h=st.integers(4, 9),
    w=st.integers(4, 9),
    k=st.integers(1, 3),
    stride=st.integers(1, 2),
    padding=st.integers(0, 2),
    seed=st.integers(0, 1000),
)
def test_adjoint_property_holds_generally(h, w, k, stride, padding, seed):
    gen = np.random.default_rng(seed)
    x = gen.normal(size=(1, 2, h, w))
    cols, _, _ = F.im2col(x, (k, k), stride=stride, padding=padding)
    y = gen.normal(size=cols.shape)
    lhs = float((cols * y).sum())
    back = F.col2im(y, x.shape, (k, k), stride=stride, padding=padding)
    rhs = float((x * back).sum())
    assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(1, 3),
    c=st.integers(1, 3),
    h=st.integers(1, 9),
    w=st.integers(1, 9),
    kh=st.integers(1, 4),
    kw=st.integers(1, 4),
    stride=st.integers(1, 3),
    padding=st.integers(0, 2),
    dtype=st.sampled_from([np.float32, np.float64]),
    transposed=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_kernels_bitwise_equal_reference(
    n, c, h, w, kh, kw, stride, padding, dtype, transposed, seed
):
    """Both kernels are byte-identical to the gather/``np.add.at`` oracle."""
    assume(h + 2 * padding >= kh and w + 2 * padding >= kw)
    gen = np.random.default_rng(seed)
    if transposed:  # non-contiguous views in
        x = _tricky_values(gen, (n, c, w, h), dtype).transpose(0, 1, 3, 2)
    else:
        x = _tricky_values(gen, (n, c, h, w), dtype)
    kernel = (kh, kw)
    got, oh, ow = F.im2col(x, kernel, stride=stride, padding=padding)
    want, oh_r, ow_r = _reference_im2col(x, kernel, stride, padding)
    assert (oh, ow) == (oh_r, ow_r)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.flags.c_contiguous and not np.shares_memory(got, x)
    assert got.tobytes() == want.tobytes()

    rows, width = got.shape
    cols = _tricky_values(gen, (width, rows) if transposed else got.shape, dtype)
    if transposed:
        cols = cols.T
    back = F.col2im(cols, x.shape, kernel, stride=stride, padding=padding)
    ref = _reference_col2im(cols, x.shape, kernel, stride, padding)
    assert back.shape == ref.shape and back.dtype == ref.dtype
    assert back.strides == ref.strides
    assert back.tobytes() == ref.tobytes()


@pytest.mark.parametrize("kernel", [(5, 5), (4, 2), (2, 4)])
def test_kernels_reject_window_larger_than_input(kernel):
    """A window that does not fit raises instead of returning empty."""
    x = np.ones((2, 1, 3, 3))
    with pytest.raises(ValueError, match="non-positive output size"):
        F.im2col(x, kernel)
    with pytest.raises(ValueError, match="non-positive output size"):
        F.col2im(np.ones((kernel[0] * kernel[1], 0)), x.shape, kernel)


def _lenet_passes(x, targets):
    """Outputs, input derivatives and parameter buffers of one pass."""
    # An overlapping average pool in front of LeNet (its conv and max
    # pools) sends every layer kind's backward through col2im.
    model = Sequential(AvgPool2d(3, stride=1), lenet(RngStream(7).child("m")))
    out = model(x)
    loss = CrossEntropyLoss()
    loss(out, targets)
    model.zero_grad()
    grad_in = model.backward(loss.backward())
    curv_in = model.backward_second(loss.second())
    arrays = [out, grad_in, curv_in]
    for _, p in model.named_parameters():
        arrays += [p.grad, p.curvature]
    return arrays


def test_lenet_passes_bitwise_equal_reference_kernels(monkeypatch):
    gen = np.random.default_rng(3)
    x = _tricky_values(gen, (6, 1, 30, 30), np.float32)
    targets = gen.integers(0, 10, size=6)
    fast = _lenet_passes(x, targets)
    monkeypatch.setattr(F, "im2col", _reference_im2col)
    monkeypatch.setattr(F, "col2im", _reference_col2im)
    reference = _lenet_passes(x, targets)
    assert len(fast) == len(reference)
    for got, want in zip(fast, reference):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_pad_unpad_roundtrip(rng):
    x = rng.child("x").normal(size=(1, 1, 4, 4))
    np.testing.assert_array_equal(F.unpad2d(F.pad2d(x, 2), 2), x)


def test_softmax_rows_sum_to_one(rng):
    logits = rng.child("l").normal(size=(6, 9)) * 10
    probs = F.softmax(logits, axis=1)
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, rtol=1e-10)
    assert probs.min() >= 0


def test_log_softmax_consistent_with_softmax(rng):
    logits = rng.child("l").normal(size=(4, 5))
    np.testing.assert_allclose(
        np.exp(F.log_softmax(logits)), F.softmax(logits), rtol=1e-10
    )


def test_softmax_extreme_values_stable():
    logits = np.array([[1e4, 0.0, -1e4]])
    probs = F.softmax(logits)
    assert np.all(np.isfinite(probs))
    assert probs[0, 0] == pytest.approx(1.0)


def test_one_hot_basics():
    out = F.one_hot(np.array([0, 2, 1]), 3)
    np.testing.assert_array_equal(
        out, [[1, 0, 0], [0, 0, 1], [0, 1, 0]]
    )
    with pytest.raises(ValueError, match="range"):
        F.one_hot(np.array([3]), 3)
    with pytest.raises(ValueError, match="1-D"):
        F.one_hot(np.zeros((2, 2), dtype=np.int64), 3)


def test_one_hot_dtype_derivation():
    labels = np.array([0, 1])
    # Default stays float64; `like` derives from the logits; explicit wins.
    assert F.one_hot(labels, 2).dtype == np.float64
    logits32 = np.zeros((2, 2), dtype=np.float32)
    assert F.one_hot(labels, 2, like=logits32).dtype == np.float32
    assert F.one_hot(labels, 2, dtype=np.float16, like=logits32).dtype == np.float16


def test_cross_entropy_backward_preserves_float32():
    """Float32 models must not be upcast through the loss backward path."""
    from repro.nn.losses import CrossEntropyLoss

    logits = np.random.default_rng(0).normal(size=(8, 4)).astype(np.float32)
    targets = np.arange(8) % 4
    loss = CrossEntropyLoss()
    loss(logits, targets)
    grad = loss.backward()
    assert grad.dtype == np.float32
    # Gradient identity (p - y) / N against the float64 reference.
    loss64 = CrossEntropyLoss()
    loss64(logits.astype(np.float64), targets)
    np.testing.assert_allclose(grad, loss64.backward(), atol=1e-7)
