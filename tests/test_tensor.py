import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
