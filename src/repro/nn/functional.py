"""Array-level building blocks: im2col/col2im, softmax, one-hot.

``im2col`` turns convolution into one big matrix multiply, which is both the
fastest way to run convolutions in NumPy and — more importantly here — makes
the paper's observation that "convolution layers can be cast in the same
form as FC layers" (Sec. 3.3) literal in the code: the gradient uses the
column matrix, and the diagonal-curvature pass uses the *squared* column
matrix, exactly as Eq. 8 does for fully connected layers.

Both kernels work on strided views (``sliding_window_view`` for the
unfold, ``kh*kw`` strided-slice adds for the fold) under one bitwise
contract: ``im2col`` is an exact copy, and ``col2im`` accumulates each
pixel in the same order as an ``np.add.at`` scatter, so every output is
byte-identical to the fancy-index gather/scatter formulation.  The column
layout ``(C*kh*kw, N*out_h*out_w)`` is fixed: its rows are channel-major,
so input-channel tiles of a crossbar are contiguous row blocks of
``cols`` (strided slices of the same matrix, no re-unfold).
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = [
    "pad2d",
    "unpad2d",
    "im2col",
    "col2im",
    "conv_output_size",
    "softmax",
    "log_softmax",
    "one_hot",
]


def conv_output_size(size, kernel, stride, padding):
    """Spatial output size of a convolution/pooling along one axis."""
    out = (size + 2 * padding - kernel) // stride + 1
    if out <= 0:
        raise ValueError(
            f"non-positive output size for input={size}, kernel={kernel}, "
            f"stride={stride}, padding={padding}"
        )
    return out


def pad2d(x, padding):
    """Zero-pad NCHW input spatially by ``padding`` on each side."""
    if padding == 0:
        return x
    return np.pad(
        x,
        ((0, 0), (0, 0), (padding, padding), (padding, padding)),
        mode="constant",
    )


def unpad2d(x, padding):
    """Inverse of :func:`pad2d`."""
    if padding == 0:
        return x
    return x[:, :, padding:-padding, padding:-padding]


def im2col(x, kernel, stride=1, padding=0):
    """Unfold NCHW input into a column matrix.

    Parameters
    ----------
    x:
        Input of shape ``(N, C, H, W)``.
    kernel:
        ``(kh, kw)`` window size.
    stride, padding:
        Convolution geometry.

    Returns
    -------
    tuple
        ``(cols, out_h, out_w)`` where ``cols`` is a fresh C-contiguous
        array of shape ``(C*kh*kw, N*out_h*out_w)``; column
        ``n*out_h*out_w + p`` holds the receptive field of output pixel
        ``p`` of sample ``n``.
    """
    n, c, h, w = x.shape
    kh, kw = kernel
    out_h = conv_output_size(h, kh, stride, padding)
    out_w = conv_output_size(w, kw, stride, padding)
    windows = sliding_window_view(pad2d(x, padding), (kh, kw), axis=(2, 3))
    # (N, C, oh, ow, kh, kw) -> (C, kh, kw, N, oh, ow), copied once.
    cols = windows[:, :, ::stride, ::stride].transpose(1, 4, 5, 0, 2, 3).copy()
    return cols.reshape(c * kh * kw, n * out_h * out_w), out_h, out_w


def col2im(cols, x_shape, kernel, stride=1, padding=0):
    """Fold a column matrix back to NCHW, summing overlapping windows.

    This is the adjoint of :func:`im2col` (not its inverse): each input
    pixel accumulates contributions from every window that covered it,
    which is exactly what both the gradient and the diagonal-curvature
    backward passes require.

    Every pixel starts at ``+0.0`` and adds its window offsets ``(i, j)``
    in lexicographic order, the order an ``np.add.at`` scatter over this
    column layout accumulates in, so the sums are bitwise-equal to that
    scatter's, not merely ulp-close.
    """
    n, c, h, w = x_shape
    kh, kw = kernel
    out_h = conv_output_size(h, kh, stride, padding)
    out_w = conv_output_size(w, kw, stride, padding)
    # (C, kh, kw, N, oh, ow) -> (kh, kw, N, C, oh, ow)
    patches = cols.reshape(c, kh, kw, n, out_h, out_w).transpose(1, 2, 3, 0, 4, 5)
    out = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=cols.dtype)
    for i in range(kh):
        for j in range(kw):
            out[:, :, i : i + stride * out_h : stride,
                j : j + stride * out_w : stride] += patches[i, j]
    return unpad2d(out, padding)


def softmax(logits, axis=-1):
    """Numerically stable softmax."""
    shifted = logits - np.max(logits, axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / np.sum(exp, axis=axis, keepdims=True)


def log_softmax(logits, axis=-1):
    """Numerically stable log-softmax."""
    shifted = logits - np.max(logits, axis=axis, keepdims=True)
    return shifted - np.log(np.sum(np.exp(shifted), axis=axis, keepdims=True))


def one_hot(labels, num_classes, dtype=None, like=None):
    """One-hot encode integer labels of shape (N,) into (N, num_classes).

    The dtype is taken from ``dtype`` when given, else derived from
    ``like`` (typically the logits array), else float64.  Deriving from
    the logits keeps float32 models float32 through the loss/backward
    path instead of silently upcasting everything downstream.
    """
    labels = np.asarray(labels, dtype=np.int64)
    if labels.ndim != 1:
        raise ValueError(f"labels must be 1-D, got shape {labels.shape}")
    if labels.min(initial=0) < 0 or labels.max(initial=0) >= num_classes:
        raise ValueError("labels out of range")
    if dtype is None:
        dtype = np.asarray(like).dtype if like is not None else np.float64
    out = np.zeros((labels.size, num_classes), dtype=dtype)
    out[np.arange(labels.size), labels] = 1
    return out
