import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seizurecnn import tensor
from seizurecnn.errors import DataError
from seizurecnn.tensor import (RNG_ALGORITHM_ID, RngStream, check_fields, glorot_uniform,
                               load_arrays, save_arrays, save_json, seeded_rng)


class TestRngStream:
    def test_same_seed_same_draws(self):
        a = seeded_rng(42).uniform(size=1000)
        b = seeded_rng(42).uniform(size=1000)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = seeded_rng(42).uniform(size=1000)
        b = seeded_rng(43).uniform(size=1000)
        assert not np.array_equal(a, b)

    def test_child_differs_from_parent(self):
        parent = seeded_rng(42)
        child = parent.split("dropout")
        assert not np.array_equal(parent.uniform(size=100), child.uniform(size=100))

    def test_sibling_streams_differ(self):
        root = seeded_rng(7)
        a = root.split("a").uniform(size=100)
        b = root.split("b").uniform(size=100)
        assert not np.array_equal(a, b)

    def test_same_label_reproduces(self):
        a = seeded_rng(7).split("x").split("y").uniform(size=50)
        b = seeded_rng(7).split("x").split("y").uniform(size=50)
        assert np.array_equal(a, b)

    def test_split_order_does_not_matter(self):
        root1 = seeded_rng(3)
        root1.uniform(size=10)
        fresh = seeded_rng(3)
        assert np.array_equal(root1.split("k").uniform(size=10),
                              fresh.split("k").uniform(size=10))

    def test_seed_bounds(self):
        seeded_rng(0)
        seeded_rng(2**64 - 1)
        with pytest.raises(ValueError):
            seeded_rng(-1)
        with pytest.raises(ValueError):
            seeded_rng(2**64)

    def test_algorithm_id_exposed(self):
        assert seeded_rng(0).algorithm_id == RNG_ALGORITHM_ID

    def test_permutation_and_choice_deterministic(self):
        a = seeded_rng(5).split("p")
        b = seeded_rng(5).split("p")
        assert np.array_equal(a.permutation(20), b.permutation(20))
        assert np.array_equal(a.choice(16, size=8), b.choice(16, size=8))


class TestGlorotUniform:
    def test_unit_fans_bound(self):
        samples = glorot_uniform((10000,), 1, 1, seeded_rng(0), dtype=np.float64)
        limit = np.sqrt(3.0)
        assert np.all(np.abs(samples) <= limit)

    def test_large_fan_bound(self):
        # sqrt(6 / (2048 + 64)) evaluated independently
        limit = 0.05330017908890261
        samples = glorot_uniform((2048, 64), 2048, 64, seeded_rng(1), dtype=np.float64)
        assert np.all(np.abs(samples) <= limit + 1e-12)
        assert np.abs(samples).max() > 0.9 * limit

    def test_mean_near_zero(self):
        samples = glorot_uniform((100000,), 3, 3, seeded_rng(2), dtype=np.float64)
        assert abs(samples.mean()) < 0.02

    def test_zero_fan_rejected(self):
        with pytest.raises(ValueError):
            glorot_uniform((2, 2), 0, 4, seeded_rng(0))
        with pytest.raises(ValueError):
            glorot_uniform((2, 2), 4, 0, seeded_rng(0))

    def test_dtype(self):
        assert glorot_uniform((3,), 1, 1, seeded_rng(0)).dtype == np.float32


@st.composite
def array_and_reshape(draw):
    shape = tuple(draw(st.lists(st.integers(1, 4), min_size=1, max_size=3)))
    n = int(np.prod(shape))
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    d = draw(st.sampled_from(divisors))
    return shape, (d, n // d)


class TestArrayContract:
    @given(array_and_reshape())
    @settings(max_examples=50, deadline=None)
    def test_reshape_round_trip(self, case):
        shape, other = case
        x = np.arange(int(np.prod(shape)), dtype=np.float64).reshape(shape)
        assert np.array_equal(x.reshape(other).reshape(shape), x)

    @given(st.integers(0, 2**32), st.lists(st.integers(1, 5), min_size=1, max_size=3))
    @settings(max_examples=30, deadline=None)
    def test_elementwise_matches_scalar_loop(self, seed, dims):
        shape = tuple(dims)
        rng = seeded_rng(seed)
        a = rng.normal(size=shape)
        b = rng.normal(size=shape) + 2.0
        total = a * b + a / b - b
        flat_a, flat_b, flat_t = a.ravel(), b.ravel(), total.ravel()
        for i in range(flat_a.size):
            assert flat_t[i] == flat_a[i] * flat_b[i] + flat_a[i] / flat_b[i] - flat_b[i]


class TestArrayFiles:
    def test_round_trip(self, tmp_path):
        arrays = {"w": seeded_rng(0).normal(size=(3, 4)).astype(np.float32),
                  "b": np.arange(5, dtype=np.float64)}
        path = tmp_path / "params.npz"
        save_arrays(path, arrays)
        loaded = load_arrays(path)
        assert set(loaded) == {"w", "b"}
        for name in arrays:
            assert np.array_equal(loaded[name], arrays[name])
            assert loaded[name].dtype == arrays[name].dtype

    def test_identical_content_identical_bytes(self, tmp_path):
        arrays = {"w": seeded_rng(1).normal(size=(8, 8)).astype(np.float32)}
        p1, p2 = tmp_path / "a.npz", tmp_path / "b.npz"
        save_arrays(p1, arrays)
        save_arrays(p2, arrays)
        assert p1.read_bytes() == p2.read_bytes()

    def test_preserves_insertion_independence(self, tmp_path):
        x = np.ones((2, 2), dtype=np.float32)
        y = np.zeros(3, dtype=np.float32)
        save_arrays(tmp_path / "a.npz", {"x": x, "y": y})
        save_arrays(tmp_path / "b.npz", {"y": y, "x": x})
        a = load_arrays(tmp_path / "a.npz")
        b = load_arrays(tmp_path / "b.npz")
        assert np.array_equal(a["x"], b["x"]) and np.array_equal(a["y"], b["y"])


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_save_json_refuses_what_json_cannot_hold(tmp_path, value):
    with pytest.raises(ValueError):
        save_json(tmp_path / "doc.json", {"config": {"learning_rate": value}})


class TestCheckFields:
    KINDS = {"n": int, "rate": float, "name": str, "seed": (int, None), "rows": list}

    def check(self, obj, required=()):
        return check_fields(obj, self.KINDS, required, "doc", DataError)

    def test_valid_document_returned_as_is(self):
        doc = {"n": 3, "rate": 0.5, "name": "a", "seed": None, "rows": []}
        assert self.check(doc, ["n"]) is doc

    @pytest.mark.parametrize("value", [True, False, 1.0, "1", None])
    def test_integer_rejects(self, value):
        with pytest.raises(DataError, match=f"^doc: n must be an integer, got {value!r}$"):
            self.check({"n": value})

    def test_int_serves_as_float_but_bool_does_not(self):
        assert self.check({"rate": 1}) == {"rate": 1}
        with pytest.raises(DataError, match="^doc: rate must be a number, got True$"):
            self.check({"rate": True})

    def test_null_only_where_allowed(self):
        assert self.check({"seed": None}) == {"seed": None}
        with pytest.raises(DataError, match="^doc: name must be a string, got None$"):
            self.check({"name": None})
        with pytest.raises(DataError, match="^doc: seed must be an integer or null, got 'x'$"):
            self.check({"seed": "x"})

    def test_unknown_missing_and_non_mapping(self):
        with pytest.raises(DataError, match=r"^unknown doc keys: \['a', 'b'\]$"):
            self.check({"b": 1, "a": 2, "n": 1})
        with pytest.raises(DataError, match=r"^doc: missing keys \['name'\]$"):
            self.check({"n": 1}, ["n", "name"])
        with pytest.raises(DataError, match="^doc must be a mapping$"):
            self.check([1, 2])


class TestThreads:
    @pytest.mark.parametrize("n,cores,lengths", [
        (10, 3, [3, 3, 4]), (2, 64, [1, 1]), (32, 64, [8] * 4), (5, 1, [5]), (0, 4, [0])])
    def test_contiguous_near_equal_shares(self, n, cores, lengths, pretend_cores,
                                          shared_path):
        pretend_cores(cores)
        parts = tensor.shares(n)
        assert [len(p) for p in parts] == lengths
        assert [i for p in parts for i in p] == list(range(n))

    def test_shares_only_on_one_blas_thread(self, pretend_cores, shared_path):
        pretend_cores(4)
        assert len(tensor.shares(8)) == 4
        tensor._openblas()[1](2)  # inside shared_path, which restores the count after
        assert tensor.blas_threads() == 2
        assert tensor.shares(8) == [range(8)]

    def test_calling_thread_takes_the_first_share(self, pretend_cores, shared_path):
        pretend_cores(3)
        seen, made = {}, []

        def scratch():
            made.append(threading.get_ident())
            return np.zeros(1)

        def work(i, buffer):
            seen[i] = (threading.get_ident(), buffer)

        before = threading.active_count()
        tensor.in_threads(9, work, scratch)
        assert threading.active_count() == before
        assert made == [threading.get_ident()] * 3
        assert {seen[i][0] for i in range(3)} == {threading.get_ident()}
        assert len({ident for ident, _ in seen.values()}) > 1
        assert len({id(buffer) for _, buffer in seen.values()}) == 3

    @pytest.mark.parametrize("n,cores", [(10, 3), (9, 4), (3, 2), (1, 4)])
    def test_each_item_runs_once_in_order_within_its_share(self, n, cores, pretend_cores,
                                                          shared_path):
        pretend_cores(cores)
        made, runs = [], []

        def scratch():
            made.append(np.zeros(1))
            return made[-1]

        def work(i, buffer):
            runs.append((i, id(buffer), threading.get_ident()))
            time.sleep(0.001)

        tensor.in_threads(n, work, scratch)
        parts = tensor.shares(n)
        # by buffer set, not by thread: the pool may run two later shares on one worker
        items = {id(buffer): [] for buffer in made}
        for i, buffer, _ in runs:
            items[buffer].append(i)
        assert list(items.values()) == [list(part) for part in parts]
        assert [i for i, _, ident in runs if ident == threading.get_ident()] == list(parts[0])

    def test_no_items_call_nothing_and_start_no_thread(self, pretend_cores, monkeypatch):
        pretend_cores(4)
        monkeypatch.setattr(tensor, "ThreadPoolExecutor", None)  # calling it would raise
        called = []
        tensor.in_threads(0, lambda i, buffers: called.append(i))
        assert called == []

    def test_raises_what_a_share_raised_once_every_thread_ended(self, pretend_cores,
                                                              shared_path):
        pretend_cores(4)
        done = []

        def work(i, _):
            if i == 2:
                raise ValueError("item 2")
            time.sleep(0.05)
            done.append(i)

        before = threading.active_count()
        with pytest.raises(ValueError, match="item 2"):
            tensor.in_threads(4, work)
        assert threading.active_count() == before
        assert sorted(done) == [0, 1, 3]

    def test_one_blas_thread_restores_the_count(self):
        if tensor.blas_threads() is None:
            pytest.skip("numpy's OpenBLAS thread count cannot be read here")
        before = tensor.blas_threads()
        with tensor.one_blas_thread():
            assert tensor.blas_threads() == 1
        assert tensor.blas_threads() == before
        with pytest.raises(KeyError):
            with tensor.one_blas_thread():
                raise KeyError("x")
        assert tensor.blas_threads() == before
