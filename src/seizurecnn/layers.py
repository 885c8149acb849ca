"""Differentiable layer primitives with exact backward passes.

Data layout is ``(batch, feature_maps, *spatial)`` for the convolutional
trunk and ``(batch, features)`` after flattening.  A TRAIN-mode forward
caches what the backward pass needs and ``backward`` consumes that cache,
returning the gradient with respect to the layer input; parameter
gradients are kept on the layer and collected through ``grads``.

Every layer keeps its TRAIN cache in one attribute, ``_cache``: the
forward output shape, against which ``backward`` checks its upstream
gradient, and what the layer's backward reads:

  Conv       the zero-padded input
  BatchNorm  the normalized input and per-map inverse std
  MaxPool    the argmax of every window, the input shape and tile order
  Dropout    the keep mask (None at rate 0)
  Flatten    the input shape
  Dense      the input
  ReLU       the positive mask
  Sigmoid    the output

An INFER-mode forward caches nothing and drops what an earlier TRAIN
forward left, so ``backward`` after it raises RuntimeError.

A layer names its persistent arrays once, in ``param_keys`` (learned,
with the gradient of ``key`` in ``g_<key>``) and ``buffer_keys`` (kept
but not learned); ``params``, ``grads``, ``state`` and ``set_state``
derive from those names.

Convolution is cross-correlation with zero "same" padding: output spatial
shape equals input spatial shape for every kernel extent, and kernels of
even extent are anchored with the extra tap toward larger index.  It runs
as one im2col GEMM whose columns are ordered ``(map, *tap)``.  Max
pooling is non-overlapping with first-occurrence tie-breaking.  All of it
is deterministic given the inputs and the dropout stream.
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
        """What the last TRAIN forward kept, once ``upstream`` matches its output."""
        self._check_upstream(upstream, None if self._cache is None else self._cache[0])
        return self._cache[1]

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

    The input is padded once and gathered into an im2col column array of
    shape (batch, maps_in * taps, prod(spatial)) whose rows run in
    (map, *tap) order, taps in ``np.ndindex(*extents)`` order: the row
    order of ``kernel.reshape(maps_out, -1)``.  Forward and both backward
    products are then one batched GEMM each.  TRAIN caches the padded
    input only; backward rebuilds the columns from it, because they are
    ``taps`` times the size of the input.
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

    def _windows(self, spatial):
        """The slice of the padded input each tap reads, in np.ndindex order."""
        for offs in np.ndindex(*self.extents):
            yield (slice(None), slice(None)) + tuple(
                slice(o, o + s) for o, s in zip(offs, spatial))

    def _columns(self, padded: Tensor, spatial) -> Tensor:
        cols = np.empty((padded.shape[0], self.maps_in, self._taps) + spatial, dtype=padded.dtype)
        for t, window in enumerate(self._windows(spatial)):
            cols[:, :, t] = padded[window]
        return cols.reshape(padded.shape[0], self.maps_in * self._taps, -1)

    def forward(self, x: Tensor, mode: str = TRAIN, rng: RngStream | None = None) -> Tensor:
        rank = len(self.extents)
        if x.ndim != 2 + rank:
            raise ValueError(f"{self.name}: expected rank-{2 + rank} input, got shape {x.shape}")
        if x.shape[1] != self.maps_in:
            raise ValueError(f"{self.name}: expected {self.maps_in} input maps, got {x.shape[1]}")
        spatial = x.shape[2:]
        padded = np.pad(x, ((0, 0), (0, 0)) + self._pads)
        out = np.matmul(self.kernel.reshape(self.maps_out, -1), self._columns(padded, spatial))
        out += self.bias[:, None]
        return self._keep(mode, out.reshape((x.shape[0], self.maps_out) + spatial), padded)

    def backward(self, upstream: Tensor) -> Tensor:
        padded, = self._kept(upstream)
        spatial = upstream.shape[2:]
        up = upstream.reshape(upstream.shape[0], self.maps_out, -1)
        self.g_bias = up.sum(axis=2).sum(axis=0)
        cols = self._columns(padded, spatial)
        self.g_kernel = np.matmul(up, cols.transpose(0, 2, 1)).sum(axis=0).reshape(
            self.kernel.shape)
        del cols
        d_cols = np.matmul(self.kernel.reshape(self.maps_out, -1).T, up).reshape(
            (up.shape[0], self.maps_in, self._taps) + spatial)
        d_padded = np.zeros_like(padded)
        for t, window in enumerate(self._windows(spatial)):
            d_padded[window] += d_cols[:, :, t]
        crop = (slice(None), slice(None)) + tuple(
            slice(lo, d_padded.shape[2 + i] - hi) for i, (lo, hi) in enumerate(self._pads))
        return np.ascontiguousarray(d_padded[crop])


class MaxPool(Layer):
    """Non-overlapping max pooling; ties go to the lowest window index."""

    def __init__(self, window, name: str = "pool"):
        super().__init__(name)
        self.window = _as_tuple(window)
        if any(w < 1 for w in self.window):
            raise ValueError(f"pool window extents must be positive, got {self.window}")

    def forward(self, x: Tensor, mode: str = TRAIN, rng: RngStream | None = None) -> Tensor:
        rank = len(self.window)
        if x.ndim != 2 + rank:
            raise ValueError(f"{self.name}: expected rank-{2 + rank} input, got shape {x.shape}")
        spatial = x.shape[2:]
        for s, w in zip(spatial, self.window):
            if s % w != 0:
                raise ValueError(f"{self.name}: spatial extent {s} not divisible by window {w}")
        if mode != TRAIN:
            # running maximum over one strided view per window offset; a
            # max over the window axis of the tiles below is several times
            # slower, and inference needs no argmax
            out = None
            for offs in np.ndindex(*self.window):
                view = x[(slice(None), slice(None)) + tuple(
                    slice(o, None, w) for o, w in zip(offs, self.window))]
                out = view.copy() if out is None else np.maximum(out, view, out=out)
            return self._keep(mode, out)
        outs = tuple(s // w for s, w in zip(spatial, self.window))
        inter: list[int] = []
        for o, w in zip(outs, self.window):
            inter += [o, w]
        perm = (0, 1) + tuple(2 + 2 * i for i in range(rank)) + tuple(3 + 2 * i for i in range(rank))
        tiles = x.reshape(x.shape[:2] + tuple(inter)).transpose(perm)
        tiles = tiles.reshape(x.shape[:2] + outs + (-1,))
        argmax = tiles.argmax(axis=-1)
        out = np.take_along_axis(tiles, argmax[..., None], axis=-1)[..., 0]
        return self._keep(mode, out, argmax, x.shape, perm)

    def backward(self, upstream: Tensor) -> Tensor:
        argmax, in_shape, perm = self._kept(upstream)
        flat = np.zeros(upstream.shape + (int(np.prod(self.window)),), dtype=upstream.dtype)
        np.put_along_axis(flat, argmax[..., None], upstream[..., None], axis=-1)
        tiles = flat.reshape(upstream.shape + self.window)
        return tiles.transpose(np.argsort(perm)).reshape(in_shape)


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

    def _inv_std(self, var: Tensor, dtype) -> Tensor:
        return (1.0 / np.sqrt(var + np.asarray(self.epsilon, dtype=dtype))).astype(dtype)

    def forward(self, x: Tensor, mode: str = TRAIN, rng: RngStream | None = None) -> Tensor:
        if x.ndim < 2 or x.shape[1] != self.maps:
            raise ValueError(f"{self.name}: expected {self.maps} feature maps, got shape {x.shape}")
        x3 = x.reshape(x.shape[0], self.maps, -1)
        if mode != TRAIN:
            scale = self.gamma * self._inv_std(self.running_var, x.dtype)
            shift = self.beta - self.running_mean * scale
            out = x3 * scale.astype(x.dtype)[:, None]
            out += shift.astype(x.dtype)[:, None]
            return self._keep(mode, out.reshape(x.shape))
        if x.shape[0] < 2:
            raise ValueError(f"{self.name}: train mode needs batch size >= 2")
        count = x3.shape[0] * x3.shape[2]
        mean = x3.sum(axis=2).sum(axis=0) / count
        xhat = x3 - mean[:, None]
        var = _rowdot(xhat, xhat).sum(axis=0) / count
        self.running_mean[...] = (1.0 - self.momentum) * self.running_mean + self.momentum * mean
        self.running_var[...] = (1.0 - self.momentum) * self.running_var + self.momentum * var
        inv_std = self._inv_std(var, x.dtype)
        xhat *= inv_std[:, None]
        out = xhat * self.gamma[:, None]
        out += self.beta[:, None]
        return self._keep(mode, out.reshape(x.shape), xhat, inv_std)

    def backward(self, upstream: Tensor) -> Tensor:
        xhat, inv_std = self._kept(upstream)
        up = upstream.reshape(xhat.shape)
        count = xhat.shape[0] * xhat.shape[2]
        self.g_gamma = _rowdot(up, xhat).sum(axis=0)
        self.g_beta = up.sum(axis=2).sum(axis=0)
        # dx = gamma * inv_std * (up - g_beta / count - xhat * g_gamma / count)
        dx = xhat * (-self.g_gamma / count)[:, None]
        dx += up
        dx -= (self.g_beta / count)[:, None]
        dx *= (self.gamma * inv_std)[:, None]
        return dx.reshape(upstream.shape)


class Dropout(Layer):
    """Inverted dropout: zero with probability ``rate`` and rescale survivors."""

    def __init__(self, rate: float, name: str = "dropout"):
        super().__init__(name)
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = float(rate)

    def forward(self, x: Tensor, mode: str = TRAIN, rng: RngStream | None = None) -> Tensor:
        if mode != TRAIN or self.rate == 0.0:
            return self._keep(mode, x, None)
        if rng is None:
            raise ValueError(f"{self.name}: train mode needs an RNG stream")
        mask = rng.uniform(size=x.shape) >= self.rate
        scale = x.dtype.type(1.0 / (1.0 - self.rate))
        return self._keep(mode, np.where(mask, x, x.dtype.type(0)) * scale, mask)

    def backward(self, upstream: Tensor) -> Tensor:
        mask, = self._kept(upstream)
        if mask is None:
            return upstream
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
        for layer in self.layers:
            x = layer.forward(x, mode, rng)
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
