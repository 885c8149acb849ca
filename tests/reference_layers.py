"""Reference kernels that the fast layers are tested against.

``TapLoopConv`` makes one ``tensordot`` per kernel tap and
``ThreePassBatchNorm`` normalizes with separate mean, variance and affine
passes.  Both keep the parameters, initialization and caches of the layers
they subclass and differ only in how forward and backward compute, so a
layer can be compared with its reference by copying its state across.
"""

import numpy as np

from seizurecnn.layers import TRAIN, BatchNorm, Conv


class TapLoopConv(Conv):
    def forward(self, x, mode=TRAIN, rng=None):
        spatial = x.shape[2:]
        padded = np.pad(x, ((0, 0), (0, 0)) + self._pads)
        # Accumulate in (batch, *spatial, maps_out) so each tap is one BLAS call.
        acc = np.zeros(x.shape[:1] + spatial + (self.maps_out,), dtype=x.dtype)
        for offs in np.ndindex(*self.extents):
            window = tuple(slice(o, o + s) for o, s in zip(offs, spatial))
            tap = self.kernel[(slice(None), slice(None)) + offs]
            acc += np.tensordot(padded[(slice(None), slice(None)) + window], tap,
                                axes=([1], [1]))
        acc += self.bias
        out = np.ascontiguousarray(np.moveaxis(acc, -1, 1))
        self._padded = padded
        self._out_shape = out.shape
        return out

    def backward(self, upstream):
        self._check_upstream(upstream, self._out_shape)
        padded = self._padded
        spatial = self._out_shape[2:]
        up = np.moveaxis(upstream, 1, -1)  # (batch, *spatial, maps_out)
        sum_axes = tuple(range(up.ndim - 1))
        self.g_bias = np.ascontiguousarray(up.sum(axis=sum_axes))
        self.g_kernel = np.zeros_like(self.kernel)
        d_padded = np.zeros_like(padded)
        up_axes = (0,) + tuple(range(1, 1 + len(spatial)))
        in_axes = (0,) + tuple(range(2, 2 + len(spatial)))
        for offs in np.ndindex(*self.extents):
            window = tuple(slice(o, o + s) for o, s in zip(offs, spatial))
            x_slice = padded[(slice(None), slice(None)) + window]
            self.g_kernel[(slice(None), slice(None)) + offs] = np.tensordot(
                up, x_slice, axes=(up_axes, in_axes))
            tap = self.kernel[(slice(None), slice(None)) + offs]
            contrib = np.tensordot(up, tap, axes=([up.ndim - 1], [0]))
            d_padded[(slice(None), slice(None)) + window] += np.moveaxis(contrib, -1, 1)
        crop = (slice(None), slice(None)) + tuple(
            slice(lo, d_padded.shape[2 + i] - hi) for i, (lo, hi) in enumerate(self._pads))
        return np.ascontiguousarray(d_padded[crop])


class ThreePassBatchNorm(BatchNorm):
    def _broadcast(self, v, ndim):
        return v.reshape((1, self.maps) + (1,) * (ndim - 2))

    def forward(self, x, mode=TRAIN, rng=None):
        axes = (0,) + tuple(range(2, x.ndim))
        if mode == TRAIN:
            mean = x.mean(axis=axes)
            var = x.var(axis=axes)
            self.running_mean[...] = (1.0 - self.momentum) * self.running_mean + self.momentum * mean
            self.running_var[...] = (1.0 - self.momentum) * self.running_var + self.momentum * var
        else:
            mean = self.running_mean
            var = self.running_var
        inv_std = 1.0 / np.sqrt(var + np.asarray(self.epsilon, dtype=x.dtype))
        xhat = (x - self._broadcast(mean.astype(x.dtype), x.ndim)) * \
            self._broadcast(inv_std.astype(x.dtype), x.ndim)
        out = self._broadcast(self.gamma, x.ndim) * xhat + self._broadcast(self.beta, x.ndim)
        if mode == TRAIN:
            self._cache = (xhat, inv_std.astype(x.dtype), x.size // self.maps)
        else:
            self._cache = None
        return out

    def backward(self, upstream):
        xhat, inv_std, count = self._cache
        axes = (0,) + tuple(range(2, xhat.ndim))
        self.g_gamma = (upstream * xhat).sum(axis=axes)
        self.g_beta = upstream.sum(axis=axes)
        d_xhat = upstream * self._broadcast(self.gamma, xhat.ndim)
        sum_d = d_xhat.sum(axis=axes, keepdims=True)
        sum_dx = (d_xhat * xhat).sum(axis=axes, keepdims=True)
        return self._broadcast(inv_std, xhat.ndim) / count * (
            count * d_xhat - sum_d - xhat * sum_dx)
