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
gradient in ``xhat``.
A stack computes in one dtype, the one ``Network`` casts its input to.

``Network`` finds each ``Conv -> BatchNorm -> MaxPool -> ReLU`` run of its
layer list once.  ``forward`` runs it through ``_conv_block``, in both
modes, and ``backward`` through ``_block_backward``; the four layers' own
``forward`` and ``backward`` methods stay the reference they match bit for
bit.  In TRAIN the forward is ``Conv.forward`` then ``_train_block``, which
works over the conv output in place, one segment at a time; BatchNorm's
``xhat`` then lives in the conv output's buffer.  The backward works one
segment at a time in two passes: the first scatters the pooled gradient
to its argmax cells of one scratch for BatchNorm's parameter gradients,
the second scatters it again, forms BatchNorm's input gradient in that
segment's ``xhat`` and runs Conv's backward on it.  So no pool or
BatchNorm input gradient exists at full resolution.

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

Every per-segment step (Conv's forward and backward, BatchNorm's batch
sums, the TRAIN and INFER blocks and both backward passes) is a body that
says what happens to segment b, given its thread's scratch;
``tensor.in_threads`` runs it over the batch, sharing the segments over
threads as ``tensor.shares`` cuts them: contiguous shares, one per usable
core up to four, each thread with its own scratch from the calling
thread.  It does so only while OpenBLAS runs one thread, as every command
makes it; otherwise every segment runs on the calling thread.  The bits
cannot change with the thread count.  Each segment's results go to rows
of their own (``out[b]`` with its bias, the argmax, BatchNorm's sums, the
``g_bias`` rows, ``dx[b]``), reduced over the batch afterwards in batch
order, and the kernel gradient adds the segments' terms in batch order:
the first share, on the calling thread, adds its own as it goes, the
later shares keep theirs for the calling thread to add after.  With one
BLAS thread, no GEMM or dot splits its own sums over threads either; a
float64 dot of ``_rowdot`` would otherwise follow the BLAS thread count.

A layer names its persistent arrays once, in ``param_keys`` (learned,
with the gradient of ``key`` in ``g_<key>``) and ``buffer_keys`` (kept
but not learned); ``params``, ``grads``, ``state`` and ``set_state``
derive from those names.

Convolution is cross-correlation with zero "same" padding: output spatial
shape equals input spatial shape for every kernel extent, and kernels of
even extent are anchored with the extra tap toward larger index.  It runs
as im2col GEMMs over columns ordered ``(map, *tap)``, one segment at a
time in both directions, so no call holds a batch of columns.  Max
pooling is non-overlapping with first-occurrence tie-breaking: both modes
take one running maximum over a strided view per window offset, TRAIN
also keeps the offset of each window's first maximum, a uint8 for every
window the topologies use, and backward scatters each segment's gradient
to those cells.  All of it is deterministic given the inputs and the
dropout stream.
"""

from __future__ import annotations

import numpy as np

from .tensor import DEFAULT_DTYPE, RngStream, Tensor, glorot_uniform, in_threads, shares

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

    def __init__(self, name: str | None = None):
        self.name = name if name is not None else type(self).__name__.lower()
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

    def _kept(self, upstream) -> tuple:
        """What the last TRAIN forward kept, once ``upstream``, the upstream
        gradient or its shape, matches its output; the layer lets go of it,
        so a second backward raises."""
        self._check_upstream(upstream, None if self._cache is None else self._cache[0])
        cache, self._cache = self._cache[1], None
        return cache

    def _check_upstream(self, upstream, expected_shape) -> None:
        if expected_shape is None:
            raise RuntimeError(f"{self.name}: backward requires a recorded train-mode forward")
        shape = tuple(getattr(upstream, "shape", upstream))
        if shape != tuple(expected_shape):
            raise ValueError(
                f"{self.name}: upstream shape {shape} does not match "
                f"forward output {tuple(expected_shape)}"
            )


class Conv(Layer):
    """N-dimensional "same" convolution over (batch, maps, *spatial) input.

    out[b, f, x] = bias[f] + sum_g sum_d kernel[f, g, d] * input[b, g, x + d - offset]
    with zero padding; offset = (extent - 1) // 2 per axis.

    Each tap's window is copied straight from one segment of the input into
    one im2col scratch per thread, (maps_in * taps, prod(spatial)), rows in
    (map, *tap) order, taps in ``np.ndindex(*extents)`` order: the row order
    of ``kernel.reshape(maps_out, -1)``.  Each product is one GEMM per
    segment, as numpy's batched GEMM is, so the bits are the same; the
    kernel gradient sums the segments' products in batch order, starting
    from the first product.  ``sum(axis=0)`` starts from +0.0 instead, so
    an entry that is -0.0 in every term would come out +0.0.  TRAIN caches
    the input, which Conv never writes; backward rebuilds the columns from
    it and forms their gradient in their scratch.
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
        """Per tap, in np.ndindex order: the output cells that read the input,
        the input cells they read, and the slabs of output cells, one per
        axis the tap shifts along, that read padding instead."""
        every = (slice(None), slice(None))
        for offs in np.ndindex(*self.extents):
            # on an axis of s cells, output cell i reads input cell i + k
            shifts = [(d - lo, s) for d, (lo, _), s in zip(offs, self._pads, spatial)]
            yield (every + tuple(slice(max(0, -k), max(0, s - k)) for k, s in shifts),
                   every + tuple(slice(max(0, k), max(0, s + k)) for k, s in shifts),
                   [every + (slice(None),) * axis
                    + (slice(0, -k) if k < 0 else slice(max(0, s - k), s),)
                    for axis, (k, s) in enumerate(shifts) if k])

    def _scratch(self, x: Tensor) -> Tensor:
        """One segment's zeroed column scratch, (1, maps_in, taps, *spatial):
        its padding cells must hold zeros whenever ``_columns`` fills it."""
        return np.zeros((1, self.maps_in, self._taps) + x.shape[2:], dtype=x.dtype)

    def _columns(self, x: Tensor, b: int, cols: Tensor, taps: list) -> Tensor:
        """Segment b of ``x`` as columns, (maps_in * taps, cells), a view of
        ``cols``: a ``_scratch`` whose padding cells, which no segment
        writes, stay zero. ``taps`` is ``list(self._taps_at(x.shape[2:]))``."""
        for t, (out, src, _) in enumerate(taps):
            cols[:, :, t][out] = x[b:b + 1][src]
        return cols.reshape(self.maps_in * self._taps, -1)

    def _check(self, x: Tensor) -> None:
        rank = len(self.extents)
        if x.ndim != 2 + rank:
            raise ValueError(f"{self.name}: expected rank-{2 + rank} input, got shape {x.shape}")
        if x.shape[1] != self.maps_in:
            raise ValueError(f"{self.name}: expected {self.maps_in} input maps, got {x.shape[1]}")

    def forward(self, x: Tensor, mode: str = TRAIN, rng: RngStream | None = None) -> Tensor:
        self._check(x)
        kernel = self.kernel.reshape(self.maps_out, -1)
        out = np.empty((x.shape[0], self.maps_out, int(np.prod(x.shape[2:]))), dtype=x.dtype)
        taps = list(self._taps_at(x.shape[2:]))

        def work(b, cols):
            np.matmul(kernel, self._columns(x, b, cols, taps), out=out[b])
            out[b] += self.bias[:, None]

        in_threads(x.shape[0], work, lambda: self._scratch(x))
        return self._keep(mode, out.reshape((x.shape[0], self.maps_out) + x.shape[2:]), x)

    def backward(self, upstream: Tensor) -> Tensor:
        x, = self._kept(upstream)
        up = upstream.reshape(upstream.shape[0], self.maps_out, -1)
        return self._backward(x, lambda b, _: up[b])

    def _backward(self, x: Tensor, upstream, scratch=tuple) -> Tensor:
        """The backward over the cached input ``x``: sets the parameter
        gradients and returns the input gradient.  ``upstream(b, buffers)``
        gives segment b's upstream gradient as (maps_out, cells), where
        ``buffers`` is what ``scratch()`` made for the thread running b."""
        kernel_t = self.kernel.reshape(self.maps_out, -1).T
        g_kernel = np.zeros(kernel_t.shape[::-1], dtype=x.dtype)  # an empty batch's sum
        g_bias = np.empty((x.shape[0], self.maps_out), dtype=x.dtype)
        dx = np.zeros(x.shape, dtype=x.dtype)
        taps = list(self._taps_at(x.shape[2:]))
        # the first share, which in_threads runs on this thread, adds each
        # segment's kernel-gradient term to g_kernel as it goes; the later
        # shares keep theirs for this thread to add after
        first = len(shares(x.shape[0])[0])
        later = np.empty((x.shape[0] - first,) + g_kernel.shape, dtype=x.dtype)

        def buffers():
            return self._scratch(x), np.empty_like(g_kernel), scratch()

        def work(b, buffers):
            cols, term, extra = buffers
            c = self._columns(x, b, cols, taps)
            up = upstream(b, extra)
            up.sum(axis=1, out=g_bias[b])
            # start from the first term: zero plus it would turn -0.0 into +0.0
            np.matmul(up, c.T, out=later[b - first] if b >= first else
                      g_kernel if b == 0 else term)
            if 0 < b < first:
                np.add(g_kernel, term, out=g_kernel)
            # the columns' gradient takes the columns' place, and their
            # padding cells, which it writes too, are zeroed again
            np.matmul(kernel_t, up, out=c)
            for t, (out, src, padding) in enumerate(taps):
                dx[b:b + 1][src] += cols[:, :, t][out]
                for slab in padding:
                    cols[:, :, t][slab] = 0

        in_threads(x.shape[0], work, buffers)
        for term in later:  # in batch order
            g_kernel += term
        self.g_bias = g_bias.sum(axis=0)
        self.g_kernel = g_kernel.reshape(self.kernel.shape)
        return dx


class MaxPool(Layer):
    """Non-overlapping max pooling; ties go to the lowest window index.

    Window offsets, and the argmax that indexes them, run in
    ``np.ndindex(*window)`` order.  The argmax is the smallest unsigned
    type that holds it: uint8 up to 256 cells per window.  Backward, as the
    fused block's does, writes each segment's gradient through ``_scatter``.
    """

    def __init__(self, window, name: str = "pool"):
        super().__init__(name)
        self.window = _as_tuple(window)
        if any(w < 1 for w in self.window):
            raise ValueError(f"pool window extents must be positive, got {self.window}")

    def _pooled(self, shape) -> tuple[int, ...]:
        """The output shape for an input of ``shape``, which ``_views`` checks."""
        return self._views(np.broadcast_to(np.empty((), np.int8), shape))[0].shape

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
    def _pool(views: list[Tensor], out: Tensor, argmax: Tensor | None, flags=None) -> None:
        """The running maximum of ``views`` into ``out`` and, given a zeroed
        ``argmax``, the first offset holding it; ``flags``, two bool arrays
        shaped as ``out``, is the scratch for that, or None to allocate it."""
        np.copyto(out, views[0])
        for view in views[1:]:
            np.maximum(view, out, out=out)  # a tie keeps ``out``, the earlier cell
        if argmax is None:
            return
        # count the leading offsets that all differ from the maximum
        before, differs = flags or (np.empty(out.shape, dtype=bool),
                                    np.empty(out.shape, dtype=bool))
        before.fill(True)
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

    def _cells(self, in_shape) -> tuple[Tensor, Tensor]:
        """Per window of a segment, the flat index in the segment of its first
        cell, and per window offset the distance from it."""
        seg = in_shape[1:]
        first = np.ravel_multi_index(np.ix_(*(
            np.arange(0, s, w) for s, w in zip(seg, (1,) + self.window))), seg)
        offset = np.ravel_multi_index(
            (0,) + tuple(np.indices(self.window).reshape(len(self.window), -1)), seg)
        return first, offset

    @staticmethod
    def _scatter(up: Tensor, argmax: Tensor, cells, out: Tensor, index, cell) -> Tensor:
        """One segment's gradient ``up`` at its ``argmax`` cells of ``out``,
        zeroed first, given ``cells`` from ``_cells``; ``index`` and ``cell``
        are intp scratches shaped as ``up`` for ``np.take``'s index and output."""
        first, offset = cells
        out.fill(0)
        np.copyto(index, argmax)
        np.take(offset, index, out=cell, mode="clip")  # "raise" would buffer ``cell``
        cell += first
        out.reshape(-1)[cell.reshape(-1)] = up.reshape(-1)
        return out

    def backward(self, upstream: Tensor) -> Tensor:
        argmax, in_shape = self._kept(upstream)
        cells = self._cells(in_shape)
        index, cell = np.empty((2,) + argmax.shape[1:], dtype=np.intp)
        dx = np.empty(in_shape, dtype=upstream.dtype)
        for b in range(in_shape[0]):
            self._scatter(upstream[b], argmax[b], cells, dx[b], index, cell)
        return dx


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
        centred = np.empty(x3.shape, dtype=x3.dtype) if out is None else out
        rows = np.empty(x3.shape[:2], dtype=x3.dtype)  # per segment and map

        def sums(b, _):
            x3[b].sum(axis=1, out=rows[b])

        def dots(b, _):
            np.subtract(x3[b], mean[:, None], out=centred[b])
            rows[b] = _rowdot(centred[b], centred[b])

        in_threads(x3.shape[0], sums)
        mean = rows.sum(axis=0) / count
        in_threads(x3.shape[0], dots)
        var = rows.sum(axis=0) / count
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
        self.g_gamma = _rowdot(up, xhat).sum(axis=0)
        self.g_beta = up.sum(axis=2).sum(axis=0)
        # formed in the cache, which is let go of anyway
        return self._input_grad(xhat, inv_std, up, xhat.shape[0] * xhat.shape[2]).reshape(
            upstream.shape)

    def _input_grad(self, xhat: Tensor, inv_std: Tensor, up: Tensor, count: int) -> Tensor:
        """dx = gamma * inv_std * (up - g_beta / count - xhat * g_gamma / count)
        over (..., maps, cells), formed in ``xhat``."""
        xhat *= (-self.g_gamma / count)[:, None]
        xhat += up
        xhat -= (self.g_beta / count)[:, None]
        xhat *= (self.gamma * inv_std)[:, None]
        return xhat


def _train_block(x: Tensor, bn: BatchNorm, pool: MaxPool, relu: ReLU) -> Tensor:
    """The TRAIN forward of ``bn -> pool -> relu`` over a conv output ``x``,
    which it overwrites: the output and the three caches are those of the
    three forwards, bit for bit, but BatchNorm's output never exists at
    full resolution.

    One pass centres ``x`` in place for the batch statistics.  Then, per
    segment and while it is in cache, the centred values are scaled into
    ``xhat``, normalized into its thread's scratch, and pooled from there."""
    x3 = bn._maps_view(x)
    xhat, inv_std = bn._centre(x3, out=x3)
    out = np.empty(pool._pooled(x.shape), dtype=x.dtype)
    argmax = pool._argmax(out.shape)

    def scratch():
        segment = np.empty((1,) + x.shape[1:], dtype=x.dtype)
        flags = (np.empty((1,) + out.shape[1:], dtype=bool),
                 np.empty((1,) + out.shape[1:], dtype=bool))
        return segment.reshape(xhat.shape[1:]), pool._views(segment), flags

    def work(b, buffers):
        segment, views, flags = buffers
        xhat[b] *= inv_std[:, None]
        bn._affine(xhat[b], out=segment)
        pool._pool(views, out[b:b + 1], argmax[b:b + 1], flags)

    in_threads(x.shape[0], work, scratch)
    bn._keep(TRAIN, x, xhat, inv_std)
    pool._keep(TRAIN, out, argmax, x.shape)
    return relu.forward(out, TRAIN)


def _conv_block(x: Tensor, mode: str, conv: Conv, bn: BatchNorm, pool: MaxPool,
                relu: ReLU) -> Tensor:
    """The forward of ``conv -> bn -> pool -> relu`` over ``x``, which it
    never writes: the bits of the four forwards, and in TRAIN their caches.
    INFER pools before the bias and BatchNorm's affine (see the module notes)."""
    if mode == TRAIN:
        # Conv.forward returns a fresh array, so the block may overwrite it
        return _train_block(conv.forward(x, TRAIN), bn, pool, relu)
    conv._check(x)
    shape = (1, conv.maps_out) + x.shape[2:]
    out = np.empty(x.shape[:1] + pool._pooled(shape)[1:], dtype=x.dtype)
    pooled = bn._maps_view(out)
    scale, shift = bn._folded()
    sign = np.where(scale < 0, x.dtype.type(-1), x.dtype.type(1))[:, None]
    kernel = conv.kernel.reshape(conv.maps_out, -1) * sign
    taps = list(conv._taps_at(x.shape[2:]))

    def scratch():
        segment = np.empty(shape, dtype=x.dtype)
        return conv._scratch(x), segment.reshape(conv.maps_out, -1), pool._views(segment)

    def work(b, buffers):
        cols, segment, views = buffers
        np.matmul(kernel, conv._columns(x, b, cols, taps), out=segment)
        pool._pool(views, out[b:b + 1], None)

    in_threads(x.shape[0], work, scratch)
    pooled *= sign
    pooled += conv.bias[:, None]
    pooled *= scale[:, None]
    pooled += shift[:, None]
    conv._cache = bn._cache = pool._cache = None  # as an INFER forward of each
    return relu.forward(out, mode)


def _block_backward(up: Tensor, conv: Conv, bn: BatchNorm, pool: MaxPool, relu: ReLU) -> Tensor:
    """The backward of ``conv -> bn -> pool -> relu`` after a TRAIN
    ``_conv_block``: the bits of the four backwards, but neither the pool's
    nor BatchNorm's input gradient ever exists at full resolution.

    Pass 1 scatters each segment's pooled gradient to its argmax cells of
    its thread's zeroed scratch, for BatchNorm's parameter gradients.  Pass 2
    finds the cells again and scatters it again, forms BatchNorm's input
    gradient in the segment's ``xhat`` and hands it to Conv's backward while
    it is in cache."""
    up = relu.backward(up)
    argmax, in_shape = pool._kept(up)
    xhat, inv_std = bn._kept(in_shape)
    x, = conv._kept(in_shape)
    g_gamma = np.empty(xhat.shape[:2], dtype=up.dtype)
    g_beta = np.empty_like(g_gamma)
    cells = pool._cells(in_shape)
    count = xhat.shape[0] * xhat.shape[2]

    def scratch():
        return (np.empty(xhat.shape[1:], dtype=up.dtype),
                *np.empty((2,) + argmax.shape[1:], dtype=np.intp))

    def scattered(b, buffers):
        """Segment b's pooled gradient at its argmax cells of a zeroed scratch."""
        return pool._scatter(up[b], argmax[b], cells, *buffers)

    def first_pass(b, buffers):
        segment = scattered(b, buffers)
        g_gamma[b] = _rowdot(segment, xhat[b])
        segment.sum(axis=1, out=g_beta[b])

    in_threads(in_shape[0], first_pass, scratch)
    # BatchNorm.backward's reductions, in its order
    bn.g_gamma = g_gamma.sum(axis=0)
    bn.g_beta = g_beta.sum(axis=0)
    return conv._backward(
        x, lambda b, buffers: bn._input_grad(xhat[b], inv_std, scattered(b, buffers), count),
        scratch)


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
    def forward(self, x: Tensor, mode: str = TRAIN, rng: RngStream | None = None) -> Tensor:
        return self._keep(mode, np.maximum(x, x.dtype.type(0)), x > 0 if mode == TRAIN else None)

    def backward(self, upstream: Tensor) -> Tensor:
        mask, = self._kept(upstream)
        return np.where(mask, upstream, upstream.dtype.type(0))


class Sigmoid(Layer):
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
        # each Conv -> BatchNorm -> MaxPool -> ReLU run is one block step,
        # any other layer a step of its own
        self._steps = []
        i = 0
        while i < len(self.layers):
            step = tuple(self.layers[i:i + 4])
            if tuple(map(type, step)) != (Conv, BatchNorm, MaxPool, ReLU):
                step = step[:1]
            self._steps.append(step)
            i += len(step)

    def forward(self, x: Tensor, mode: str = TRAIN, rng: RngStream | None = None) -> Tensor:
        x = np.asarray(x, dtype=self.dtype)
        if self.input_grid is not None:
            if tuple(x.shape[1:]) != self.input_grid:
                raise ValueError(
                    f"expected input shape (batch, {', '.join(map(str, self.input_grid))}), "
                    f"got {x.shape}")
            x = x.reshape((x.shape[0], 1) + self.input_grid)
        for step in self._steps:
            x = _conv_block(x, mode, *step) if len(step) > 1 else step[0].forward(x, mode, rng)
        return x

    def backward(self, upstream: Tensor) -> Tensor:
        up = np.asarray(upstream, dtype=self.dtype)
        for step in reversed(self._steps):
            up = _block_backward(up, *step) if len(step) > 1 else step[0].backward(up)
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
