"""Fixtures shared by the test modules: the cores the process seems to
have, and OpenBLAS held on one thread so that the layers share a batch's
segments over threads."""

import os

import pytest

from seizurecnn import tensor


@pytest.fixture
def pretend_cores(monkeypatch):
    """A function that makes the process seem to run on ``n`` cores."""
    def pretend(n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)
    return pretend


@pytest.fixture
def one_blas_thread():
    """OpenBLAS on one thread for the test, its count restored after. Where
    numpy's OpenBLAS cannot be set, nothing is set and the code under test
    takes its serial path."""
    with tensor.one_blas_thread():
        yield


@pytest.fixture
def shared_path(one_blas_thread):
    """As ``one_blas_thread``, for a test that needs ``tensor.shares`` to
    share: it skips where OpenBLAS cannot be set to one thread."""
    if tensor.blas_threads() != 1:
        pytest.skip("numpy's OpenBLAS cannot be set to one thread here")
