"""Differentiable layer primitives with exact backward passes.

Data layout is ``(batch, feature_maps, *spatial)`` for the convolutional
trunk and ``(batch, features)`` after flattening.  A TRAIN-mode forward
caches what the backward pass needs and ``backward`` consumes that cache,
returning the gradient with respect to the layer input; parameter
gradients are kept on the layer and collected through ``grads``.

Every layer keeps its TRAIN cache in one attribute, ``_cache``: the
forward output shape, against which ``backward`` checks its upstream
gradient, and what the layer's backward reads:

  Conv       its input
  BatchNorm  the normalized input and per-map inverse std
  MaxPool    the argmax of every window and the input shape
  Dropout    the keep mask
  Flatten    the input shape
  Dense      the input
  ReLU       the positive mask
  Sigmoid    the output

``backward`` lets go of the cache once it has read it, and an INFER-mode
forward caches nothing and drops what an earlier TRAIN forward left, so a
second ``backward``, or one after an INFER forward, raises RuntimeError.
Backward may consume its cache in place: BatchNorm forms the input
gradient in ``xhat``, and Conv writes the gradient of its columns into
the column buffer once the kernel gradient has read it.
A stack computes in one dtype, the one ``Network`` casts its input to.

``Network.forward`` runs each ``Conv -> BatchNorm -> MaxPool -> ReLU`` run
of its layer list through ``_conv_block``, in both modes; the four layers'
own ``forward`` methods stay the reference it matches bit for bit.  In
TRAIN it is ``Conv.forward`` then ``_train_block``, which works over the
conv output in place, one segment at a time, so BatchNorm's output is
never written at full resolution.  Output, caches and running statistics
are those of the three ``forward`` methods, but BatchNorm's ``xhat`` then
lives in the conv output's buffer.

In INFER the block pools before anything else: per segment, the columns,
the GEMM without bias into one scratch, and the running maximum of that
raw output.  Only the pooled tensor gets the bias, BatchNorm's folded
scale and its shift, three separate operations in that order as in the
layers, and then the ReLU.  The bits cannot change: each step ``+bias``,
``*scale`` and ``+shift`` rounds monotonically, so a window's maximum of the block output
is that output at the window's raw maximum where ``scale >= 0``, and at
its raw minimum where ``scale < 0``.  Those maps' kernel rows are negated
before the GEMM, which then returns exactly the negated sums, since
rounding to nearest is symmetric in sign; the running maximum is negated
back on the pooled tensor.  A zero whose sign differs on the way is made
``+0`` by the ReLU, as in the layers.

A layer names its persistent arrays once, in ``param_keys`` (learned,
with the gradient of ``key`` in ``g_<key>``) and ``buffer_keys`` (kept
but not learned); ``params``, ``grads``, ``state`` and ``set_state``
derive from those names.

Convolution is cross-correlation with zero "same" padding: output spatial
shape equals input spatial shape for every kernel extent, and kernels of
even extent are anchored with the extra tap toward larger index.  It runs
as one im2col GEMM whose columns are ordered ``(map, *tap)``.  Max
pooling is non-overlapping with first-occurrence tie-breaking: both modes
take one running maximum over a strided view per window offset, and TRAIN
also keeps the offset of each window's first maximum, a uint8 for every
window the topologies use.  All of it is deterministic given the inputs
and the dropout stream.
"""

from __future__ import annotations

import numpy as np

from .tensor import DEFAULT_DTYPE, RngStream, Tensor, glorot_uniform

TRAIN = "train"
INFER = "infer"

MAX_KERNEL_EXTENT = 5


def _as_tuple(value) -> tuple[int, ...]:
    return tuple(int(v) for v in np.atleast_1d(value))


def _rowdot(a: Tensor, b: Tensor) -> Tensor:
    """Dot products over the last axis, one BLAS dot each; in float32 more
    accurate than a plain einsum reduction."""
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


class Layer:
    """Base class: a named primitive with named arrays and one TRAIN cache."""

    #: learned arrays; the gradient of each is held in ``g_<key>``
    param_keys: tuple[str, ...] = ()
    #: arrays that persist with the parameters but are not learned
    buffer_keys: tuple[str, ...] = ()
    #: parameter keys subject to L1/L2 weight decay
    regularized: tuple[str, ...] = ()

    def __init__(self, name: str):
        self.name = name
        self._cache = None

    def forward(self, x: Tensor, mode: str = TRAIN, rng: RngStream | None = None) -> Tensor:
        raise NotImplementedError

    def backward(self, upstream: Tensor) -> Tensor:
        raise NotImplementedError

    def params(self) -> dict[str, Tensor]:
        return {key: getattr(self, key) for key in self.param_keys}

    def grads(self) -> dict[str, Tensor]:
        return {key: getattr(self, "g_" + key) for key in self.param_keys}

    def state(self) -> dict[str, Tensor]:
        """Every persistent array, learnable or not."""
        return {key: getattr(self, key) for key in self.param_keys + self.buffer_keys}

    def set_state(self, arrays: dict[str, Tensor]) -> None:
        """Copy arrays in place; each must match its target's shape and
        dtype and hold only finite values."""
        state = self.state()
        for key, value in arrays.items():
            if key not in state:
                raise KeyError(f"{self.name}: unknown state key {key!r}")
            target = state[key]
            if target.shape != value.shape:
                raise ValueError(
                    f"{self.name}.{key}: shape {value.shape} does not match {target.shape}")
            if target.dtype != value.dtype:
                raise ValueError(
                    f"{self.name}.{key}: dtype {value.dtype} does not match {target.dtype}")
            if not np.isfinite(value).all():
                raise ValueError(f"{self.name}.{key}: holds non-finite values")
            target[...] = value

    def _keep(self, mode: str, out: Tensor, *cache) -> Tensor:
        """Return ``out``; a TRAIN forward keeps ``cache`` for backward, any
        other forward drops the cache."""
        self._cache = (out.shape, cache) if mode == TRAIN else None
        return out

    def _kept(self, upstream: Tensor) -> tuple:
        """What the last TRAIN forward kept, once ``upstream`` matches its
        output; the layer lets go of it, so a second backward raises."""
        self._check_upstream(upstream, None if self._cache is None else self._cache[0])
        cache, self._cache = self._cache[1], None
        return cache

    def _check_upstream(self, upstream: Tensor, expected_shape) -> None:
        if expected_shape is None:
            raise RuntimeError(f"{self.name}: backward requires a recorded train-mode forward")
        if tuple(upstream.shape) != tuple(expected_shape):
            raise ValueError(
                f"{self.name}: upstream shape {upstream.shape} does not match "
                f"forward output {tuple(expected_shape)}"
            )


class Conv(Layer):
    """N-dimensional "same" convolution over (batch, maps, *spatial) input.

    out[b, f, x] = bias[f] + sum_g sum_d kernel[f, g, d] * input[b, g, x + d - offset]
    with zero padding; offset = (extent - 1) // 2 per axis.

    Each tap's window is copied straight from the input into an im2col
    column array of shape (batch, maps_in * taps, prod(spatial)) whose rows
    run in (map, *tap) order, taps in ``np.ndindex(*extents)`` order: the
    row order of ``kernel.reshape(maps_out, -1)``.  Forward and both
    backward products are then one batched GEMM each.  TRAIN caches the
    input, which Conv never writes; backward rebuilds the columns from it,
    because they are ``taps`` times the size of the input.
    """

    param_keys = ("kernel", "bias")
    regularized = ("kernel",)

    def __init__(self, maps_in: int, maps_out: int, extents, rng: RngStream,
                 name: str = "conv", dtype=DEFAULT_DTYPE):
        super().__init__(name)
        extents = _as_tuple(extents)
        if any(e < 1 or e > MAX_KERNEL_EXTENT for e in extents):
            raise ValueError(f"kernel extents must be in 1..{MAX_KERNEL_EXTENT}, got {extents}")
        self.maps_in = int(maps_in)
        self.maps_out = int(maps_out)
        self.extents = extents
        self._taps = int(np.prod(extents))
        self.kernel = glorot_uniform((maps_out, maps_in) + extents,
                                     maps_in * self._taps, maps_out * self._taps, rng, dtype)
        self.bias = np.zeros(maps_out, dtype=dtype)
        self._pads = tuple(((e - 1) // 2, e // 2) for e in extents)
        self.g_kernel = np.zeros_like(self.kernel)
        self.g_bias = np.zeros_like(self.bias)

    def _taps_at(self, spatial):
        """Per tap, in np.ndindex order: the output cells that read the input
        and the input cells they read; its other output cells read padding."""
        every = (slice(None), slice(None))
        for offs in np.ndindex(*self.extents):
            # on an axis of s cells, output cell i reads input cell i + k
            shifts = [(d - lo, s) for d, (lo, _), s in zip(offs, self._pads, spatial)]
            yield (every + tuple(slice(max(0, -k), max(0, s - k)) for k, s in shifts),
                   every + tuple(slice(max(0, k), max(0, s + k)) for k, s in shifts))

    def _columns(self, x: Tensor) -> Tensor:
        cols = np.empty(x.shape[:2] + (self._taps,) + x.shape[2:], dtype=x.dtype)
        # zero, on every tap at once, the cells of each axis side the padding covers
        for i, (lo, hi) in enumerate(self._pads):
            side = np.moveaxis(cols, 3 + i, 0)
            side[:lo] = side[max(0, len(side) - hi):] = 0
        for t, (out, src) in enumerate(self._taps_at(x.shape[2:])):
            cols[:, :, t][out] = x[src]
        return cols.reshape(x.shape[0], self.maps_in * self._taps, -1)

    def _check(self, x: Tensor) -> None:
        rank = len(self.extents)
        if x.ndim != 2 + rank:
            raise ValueError(f"{self.name}: expected rank-{2 + rank} input, got shape {x.shape}")
        if x.shape[1] != self.maps_in:
            raise ValueError(f"{self.name}: expected {self.maps_in} input maps, got {x.shape[1]}")

    def forward(self, x: Tensor, mode: str = TRAIN, rng: RngStream | None = None) -> Tensor:
        self._check(x)
        out = np.matmul(self.kernel.reshape(self.maps_out, -1), self._columns(x))
        out += self.bias[:, None]
        return self._keep(mode, out.reshape((x.shape[0], self.maps_out) + x.shape[2:]), x)

    def backward(self, upstream: Tensor) -> Tensor:
        x, = self._kept(upstream)
        up = upstream.reshape(upstream.shape[0], self.maps_out, -1)
        self.g_bias = up.sum(axis=2).sum(axis=0)
        cols = self._columns(x)
        self.g_kernel = np.matmul(up, cols.transpose(0, 2, 1)).sum(axis=0).reshape(
            self.kernel.shape)
        # the columns are read; d_cols takes their buffer
        d_cols = np.matmul(self.kernel.reshape(self.maps_out, -1).T, up, out=cols).reshape(
            (up.shape[0], self.maps_in, self._taps) + x.shape[2:])
        dx = np.zeros(x.shape, dtype=x.dtype)
        for t, (out, src) in enumerate(self._taps_at(x.shape[2:])):
            dx[src] += d_cols[:, :, t][out]
        return dx


class MaxPool(Layer):
    """Non-overlapping max pooling; ties go to the lowest window index.

    Window offsets, and the argmax that indexes them, run in
    ``np.ndindex(*window)`` order.  The argmax is the smallest unsigned
    type that holds it: uint8 up to 256 cells per window.
    """

    def __init__(self, window, name: str = "pool"):
        super().__init__(name)
        self.window = _as_tuple(window)
        if any(w < 1 for w in self.window):
            raise ValueError(f"pool window extents must be positive, got {self.window}")

    def _views(self, x: Tensor) -> list[Tensor]:
        """One strided view of ``x`` per window offset, in np.ndindex order."""
        rank = len(self.window)
        if x.ndim != 2 + rank:
            raise ValueError(f"{self.name}: expected rank-{2 + rank} input, got shape {x.shape}")
        for s, w in zip(x.shape[2:], self.window):
            if s % w != 0:
                raise ValueError(f"{self.name}: spatial extent {s} not divisible by window {w}")
        return [x[(slice(None), slice(None)) + tuple(
            slice(o, None, w) for o, w in zip(offs, self.window))]
            for offs in np.ndindex(*self.window)]

    def _argmax(self, shape) -> Tensor:
        return np.zeros(shape, dtype=np.min_scalar_type(int(np.prod(self.window)) - 1))

    @staticmethod
    def _pool(views: list[Tensor], out: Tensor, argmax: Tensor | None) -> None:
        """The running maximum of ``views`` into ``out`` and, given a zeroed
        ``argmax``, the first offset holding it."""
        np.copyto(out, views[0])
        for view in views[1:]:
            np.maximum(view, out, out=out)  # a tie keeps ``out``, the earlier cell
        if argmax is None:
            return
        # count the leading offsets that all differ from the maximum
        before = np.ones(out.shape, dtype=bool)
        differs = np.empty(out.shape, dtype=bool)
        for view in views[:-1]:
            np.not_equal(view, out, out=differs)
            before &= differs
            argmax += before

    def forward(self, x: Tensor, mode: str = TRAIN, rng: RngStream | None = None) -> Tensor:
        views = self._views(x)
        out = np.empty(views[0].shape, dtype=x.dtype)
        argmax = self._argmax(out.shape) if mode == TRAIN else None
        self._pool(views, out, argmax)
        return self._keep(mode, out, argmax, x.shape)

    def backward(self, upstream: Tensor) -> Tensor:
        argmax, in_shape = self._kept(upstream)
        rank = len(self.window)
        flat = np.zeros(upstream.shape + (int(np.prod(self.window)),), dtype=upstream.dtype)
        np.put_along_axis(flat, argmax[..., None], upstream[..., None], axis=-1)
        # (batch, maps, *outs, *window) back to (batch, maps, out0, win0, out1, win1, ...)
        perm = (0, 1) + tuple(a for i in range(rank) for a in (2 + i, 2 + rank + i))
        return flat.reshape(upstream.shape + self.window).transpose(perm).reshape(in_shape)


class BatchNorm(Layer):
    """Per-feature-map batch normalization with running statistics.

    Train mode normalizes with batch statistics (batch size >= 2) and
    updates running stats as running <- (1 - momentum)*running + momentum*batch.
    It takes two passes over the input, one for the mean and one for the
    variance of the centred copy, which is then scaled in place into the
    cached normalized input ``xhat``.  Inference folds the running
    statistics into a per-map scale and shift, so batch-size-1 inference
    is valid.
    """

    param_keys = ("gamma", "beta")
    buffer_keys = ("running_mean", "running_var")
    momentum = 0.1
    epsilon = 1e-5

    def __init__(self, maps: int, name: str = "bn", dtype=DEFAULT_DTYPE):
        super().__init__(name)
        self.maps = int(maps)
        self.gamma = np.ones(maps, dtype=dtype)
        self.beta = np.zeros(maps, dtype=dtype)
        self.running_mean = np.zeros(maps, dtype=dtype)
        self.running_var = np.ones(maps, dtype=dtype)
        self.g_gamma = np.zeros_like(self.gamma)
        self.g_beta = np.zeros_like(self.beta)

    def _maps_view(self, x: Tensor) -> Tensor:
        """``x`` as (batch, maps, cells)."""
        if x.ndim < 2 or x.shape[1] != self.maps:
            raise ValueError(f"{self.name}: expected {self.maps} feature maps, got shape {x.shape}")
        return x.reshape(x.shape[0], self.maps, -1)

    def _centre(self, x3: Tensor, out: Tensor | None = None) -> tuple[Tensor, Tensor]:
        """Centre ``x3`` on its batch mean into ``out`` (new when None, and
        may be ``x3``), update the running statistics, and return the
        centred array with the per-map inverse std."""
        if x3.shape[0] < 2:
            raise ValueError(f"{self.name}: train mode needs batch size >= 2")
        count = x3.shape[0] * x3.shape[2]
        mean = x3.sum(axis=2).sum(axis=0) / count
        centred = np.subtract(x3, mean[:, None], out=out)
        var = _rowdot(centred, centred).sum(axis=0) / count
        self.running_mean[...] = (1.0 - self.momentum) * self.running_mean + self.momentum * mean
        self.running_var[...] = (1.0 - self.momentum) * self.running_var + self.momentum * var
        return centred, 1.0 / np.sqrt(var + self.epsilon)

    def _affine(self, xhat: Tensor, out: Tensor | None = None) -> Tensor:
        """gamma * xhat + beta per map, over (..., maps, cells)."""
        out = np.multiply(xhat, self.gamma[:, None], out=out)
        out += self.beta[:, None]
        return out

    def _folded(self) -> tuple[Tensor, Tensor]:
        """The per-map scale and shift of INFER: the running statistics
        folded into gamma and beta."""
        scale = self.gamma * (1.0 / np.sqrt(self.running_var + self.epsilon))
        return scale, self.beta - self.running_mean * scale

    def forward(self, x: Tensor, mode: str = TRAIN, rng: RngStream | None = None) -> Tensor:
        x3 = self._maps_view(x)
        if mode != TRAIN:
            scale, shift = self._folded()
            out = x3 * scale[:, None]
            out += shift[:, None]
            return self._keep(mode, out.reshape(x.shape))
        xhat, inv_std = self._centre(x3)
        xhat *= inv_std[:, None]
        return self._keep(mode, self._affine(xhat).reshape(x.shape), xhat, inv_std)

    def backward(self, upstream: Tensor) -> Tensor:
        xhat, inv_std = self._kept(upstream)
        up = upstream.reshape(xhat.shape)
        count = xhat.shape[0] * xhat.shape[2]
        self.g_gamma = _rowdot(up, xhat).sum(axis=0)
        self.g_beta = up.sum(axis=2).sum(axis=0)
        # dx = gamma * inv_std * (up - g_beta / count - xhat * g_gamma / count)
        dx = xhat  # formed in the cache, which is let go of anyway
        dx *= (-self.g_gamma / count)[:, None]
        dx += up
        dx -= (self.g_beta / count)[:, None]
        dx *= (self.gamma * inv_std)[:, None]
        return dx.reshape(upstream.shape)


def _train_block(x: Tensor, bn: BatchNorm, pool: MaxPool, relu: ReLU) -> Tensor:
    """The TRAIN forward of ``bn -> pool -> relu`` over a conv output ``x``,
    which it overwrites: the output and the three caches are those of the
    three forwards, bit for bit, but BatchNorm's output never exists at
    full resolution.

    One pass centres ``x`` in place for the batch statistics.  Then, per
    segment and while it is in cache, the centred values are scaled into
    ``xhat``, normalized into one scratch, and pooled from there."""
    x3 = bn._maps_view(x)
    xhat, inv_std = bn._centre(x3, out=x3)
    scratch = np.empty(xhat.shape[1:], dtype=x.dtype)
    views = pool._views(scratch.reshape((1,) + x.shape[1:]))
    out = np.empty(x.shape[:1] + views[0].shape[1:], dtype=scratch.dtype)
    argmax = pool._argmax(out.shape)
    for b in range(x.shape[0]):
        xhat[b] *= inv_std[:, None]
        bn._affine(xhat[b], out=scratch)
        pool._pool(views, out[b:b + 1], argmax[b:b + 1])
    bn._keep(TRAIN, x, xhat, inv_std)
    pool._keep(TRAIN, out, argmax, x.shape)
    return relu.forward(out, TRAIN)


def _conv_block(x: Tensor, mode: str, conv: Conv, bn: BatchNorm, pool: MaxPool,
                relu: ReLU) -> Tensor:
    """The forward of ``conv -> bn -> pool -> relu`` over ``x``, which it
    never writes: the bits of the four forwards, and in TRAIN their caches.

    INFER pools each segment's raw GEMM output and applies the bias and
    BatchNorm's affine only to the pooled tensor (see the module notes);
    maps of negative scale pool their negated output."""
    if mode == TRAIN:
        # Conv.forward returns a fresh array, so the block may overwrite it
        return _train_block(conv.forward(x, TRAIN), bn, pool, relu)
    conv._check(x)
    scratch = np.empty((conv.maps_out, int(np.prod(x.shape[2:]))), dtype=x.dtype)
    views = pool._views(scratch.reshape((1, conv.maps_out) + x.shape[2:]))
    out = np.empty(x.shape[:1] + views[0].shape[1:], dtype=x.dtype)
    pooled = bn._maps_view(out)
    scale, shift = bn._folded()
    sign = np.where(scale < 0, x.dtype.type(-1), x.dtype.type(1))[:, None]
    kernel = conv.kernel.reshape(conv.maps_out, -1) * sign
    for b in range(x.shape[0]):
        np.matmul(kernel, conv._columns(x[b:b + 1])[0], out=scratch)
        pool._pool(views, out[b:b + 1], None)
    pooled *= sign
    pooled += conv.bias[:, None]
    pooled *= scale[:, None]
    pooled += shift[:, None]
    conv._cache = bn._cache = pool._cache = None  # as an INFER forward of each
    return relu.forward(out, mode)


class Dropout(Layer):
    """Inverted dropout: zero with probability ``rate`` and rescale survivors."""

    def __init__(self, rate: float, name: str = "dropout"):
        super().__init__(name)
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = float(rate)

    def forward(self, x: Tensor, mode: str = TRAIN, rng: RngStream | None = None) -> Tensor:
        if mode != TRAIN:
            return self._keep(mode, x)
        if rng is None:
            raise ValueError(f"{self.name}: train mode needs an RNG stream")
        mask = rng.uniform(size=x.shape) >= self.rate
        scale = x.dtype.type(1.0 / (1.0 - self.rate))
        return self._keep(mode, np.where(mask, x, x.dtype.type(0)) * scale, mask)

    def backward(self, upstream: Tensor) -> Tensor:
        mask, = self._kept(upstream)
        scale = upstream.dtype.type(1.0 / (1.0 - self.rate))
        return np.where(mask, upstream, upstream.dtype.type(0)) * scale


class Flatten(Layer):
    """Collapse (batch, maps, *spatial) to (batch, features); pure reshape."""

    def __init__(self, name: str = "flatten"):
        super().__init__(name)

    def forward(self, x: Tensor, mode: str = TRAIN, rng: RngStream | None = None) -> Tensor:
        return self._keep(mode, x.reshape(x.shape[0], -1), x.shape)

    def backward(self, upstream: Tensor) -> Tensor:
        in_shape, = self._kept(upstream)
        return upstream.reshape(in_shape)


class Dense(Layer):
    """Fully connected layer: out = x W^T + b with W of shape (n_out, n_in)."""

    param_keys = ("weights", "bias")
    regularized = ("weights",)

    def __init__(self, n_in: int, n_out: int, rng: RngStream,
                 name: str = "dense", dtype=DEFAULT_DTYPE):
        super().__init__(name)
        self.n_in = int(n_in)
        self.n_out = int(n_out)
        self.weights = glorot_uniform((n_out, n_in), n_in, n_out, rng, dtype)
        self.bias = np.zeros(n_out, dtype=dtype)
        self.g_weights = np.zeros_like(self.weights)
        self.g_bias = np.zeros_like(self.bias)

    def forward(self, x: Tensor, mode: str = TRAIN, rng: RngStream | None = None) -> Tensor:
        if x.ndim != 2 or x.shape[1] != self.n_in:
            raise ValueError(f"{self.name}: expected (batch, {self.n_in}) input, got {x.shape}")
        return self._keep(mode, x @ self.weights.T + self.bias, x)

    def backward(self, upstream: Tensor) -> Tensor:
        x, = self._kept(upstream)
        self.g_weights = upstream.T @ x
        self.g_bias = upstream.sum(axis=0)
        return upstream @ self.weights


class ReLU(Layer):
    def __init__(self, name: str = "relu"):
        super().__init__(name)

    def forward(self, x: Tensor, mode: str = TRAIN, rng: RngStream | None = None) -> Tensor:
        return self._keep(mode, np.maximum(x, x.dtype.type(0)), x > 0 if mode == TRAIN else None)

    def backward(self, upstream: Tensor) -> Tensor:
        mask, = self._kept(upstream)
        return np.where(mask, upstream, upstream.dtype.type(0))


class Sigmoid(Layer):
    def __init__(self, name: str = "sigmoid"):
        super().__init__(name)

    def forward(self, x: Tensor, mode: str = TRAIN, rng: RngStream | None = None) -> Tensor:
        out = np.empty_like(x)
        pos = x >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ex = np.exp(x[~pos])
        out[~pos] = ex / (1.0 + ex)
        return self._keep(mode, out, out)

    def backward(self, upstream: Tensor) -> Tensor:
        out, = self._kept(upstream)
        return upstream * out * (1.0 - out)


class Network:
    """Ordered layer stack with flat, name-prefixed parameter access.

    When ``input_grid`` is given, ``forward`` accepts (batch, *input_grid)
    arrays and inserts the single leading feature map the convolutional
    trunk expects.
    """

    def __init__(self, layers: list[Layer], input_grid: tuple[int, ...] | None = None,
                 dtype=DEFAULT_DTYPE):
        names = [layer.name for layer in layers]
        if len(set(names)) != len(names):
            raise ValueError("layer names must be unique")
        self.layers = list(layers)
        self.input_grid = tuple(input_grid) if input_grid is not None else None
        self.dtype = dtype

    def forward(self, x: Tensor, mode: str = TRAIN, rng: RngStream | None = None) -> Tensor:
        x = np.asarray(x, dtype=self.dtype)
        if self.input_grid is not None:
            if tuple(x.shape[1:]) != self.input_grid:
                raise ValueError(
                    f"expected input shape (batch, {', '.join(map(str, self.input_grid))}), "
                    f"got {x.shape}")
            x = x.reshape((x.shape[0], 1) + self.input_grid)
        layers = self.layers
        i = 0
        while i < len(layers):
            block = layers[i:i + 4]
            if [type(layer) for layer in block] == [Conv, BatchNorm, MaxPool, ReLU]:
                x = _conv_block(x, mode, *block)
            else:
                block = block[:1]
                x = block[0].forward(x, mode, rng)
            i += len(block)
        return x

    def backward(self, upstream: Tensor) -> Tensor:
        up = np.asarray(upstream, dtype=self.dtype)
        for layer in reversed(self.layers):
            up = layer.backward(up)
        if self.input_grid is not None:
            up = up.reshape((up.shape[0],) + self.input_grid)
        return up

    def _prefixed(self, arrays: str) -> dict[str, Tensor]:
        """Every layer's ``params``, ``grads`` or ``state`` keyed ``layer.key``."""
        return {f"{layer.name}.{key}": value for layer in self.layers
                for key, value in getattr(layer, arrays)().items()}

    def params(self) -> dict[str, Tensor]:
        return self._prefixed("params")

    def grads(self) -> dict[str, Tensor]:
        return self._prefixed("grads")

    def state(self) -> dict[str, Tensor]:
        return self._prefixed("state")

    def load_state(self, arrays: dict[str, Tensor]) -> None:
        expected = self.state()
        missing = sorted(set(expected) - set(arrays))
        extra = sorted(set(arrays) - set(expected))
        if missing or extra:
            raise ValueError(f"state mismatch: missing {missing}, unexpected {extra}")
        for layer in self.layers:
            prefix = layer.name + "."
            layer.set_state({k[len(prefix):]: v for k, v in arrays.items()
                             if k.startswith(prefix)})

    def regularized_names(self) -> list[str]:
        return [f"{layer.name}.{key}" for layer in self.layers for key in layer.regularized]
