import json

import numpy as np
import pytest

from seizurecnn.errors import ConfigError, LayoutError
from seizurecnn.layers import INFER, TRAIN, Network
from seizurecnn.tensor import seeded_rng
from seizurecnn.topologies import (TOPOLOGIES, ElectrodeLayout, _block_geometry,
                                   build_topology, input_grid, reshape_batch)


def shuffled_layout(seed):
    """A valid random layout with hemispheres, rarely the identity."""
    rng = seeded_rng(seed).split("layout")
    cells = rng.permutation(16)
    strips = [int(c) // 4 for c in cells]
    contacts = [int(c) % 4 for c in cells]
    strip_hemi = {s: h for s, h in zip(rng.permutation(4), (0, 0, 1, 1))}
    hemis = [strip_hemi[s] for s in strips]
    return ElectrodeLayout(strips, contacts, hemis)


class TestElectrodeLayout:
    def test_default_is_identity_grid(self):
        layout = ElectrodeLayout.default()
        assert layout.strips == tuple(c // 4 for c in range(16))
        assert layout.contacts == tuple(c % 4 for c in range(16))
        assert layout.hemispheres == tuple(c // 8 for c in range(16))
        assert layout.hemispheres is not None

    def test_mapping_round_trip(self):
        layout = shuffled_layout(3)
        assert ElectrodeLayout.from_mapping(layout.to_mapping()).to_mapping() == layout.to_mapping()

    def test_file_round_trip(self, tmp_path):
        layout = shuffled_layout(4)
        path = tmp_path / "layout.json"
        layout.save(path)
        assert ElectrodeLayout.load(path).to_mapping() == layout.to_mapping()
        assert ElectrodeLayout.load(path).content_hash() == layout.content_hash()

    def test_hash_distinguishes_layouts(self):
        assert ElectrodeLayout.default().content_hash() != shuffled_layout(5).content_hash()

    def test_hemispheres_optional(self):
        layout = ElectrodeLayout([c // 4 for c in range(16)], [c % 4 for c in range(16)])
        assert layout.hemispheres is None
        doc = layout.to_mapping()
        assert "hemisphere" not in doc["0"]
        assert ElectrodeLayout.from_mapping(doc).to_mapping() == doc

    def test_incomplete_channel_set(self):
        with pytest.raises(LayoutError):
            ElectrodeLayout([0] * 15, [0] * 15)

    def test_strip_out_of_range(self):
        strips = [c // 4 for c in range(16)]
        strips[0] = 4
        with pytest.raises(LayoutError):
            ElectrodeLayout(strips, [c % 4 for c in range(16)])

    def test_duplicate_grid_cell(self):
        contacts = [c % 4 for c in range(16)]
        contacts[1] = contacts[0]
        with pytest.raises(LayoutError):
            ElectrodeLayout([c // 4 for c in range(16)], contacts)

    def test_strip_split_across_hemispheres(self):
        hemis = [c // 8 for c in range(16)]
        hemis[0] = 1
        with pytest.raises(LayoutError):
            ElectrodeLayout([c // 4 for c in range(16)], [c % 4 for c in range(16)], hemis)

    def test_unbalanced_hemispheres(self):
        # strips 0..2 on hemisphere 0, strip 3 alone on hemisphere 1
        hemis = [0 if c // 4 < 3 else 1 for c in range(16)]
        with pytest.raises(LayoutError):
            ElectrodeLayout([c // 4 for c in range(16)], [c % 4 for c in range(16)], hemis)

    def test_from_mapping_rejects_partial_hemispheres(self):
        doc = ElectrodeLayout.default().to_mapping()
        del doc["3"]["hemisphere"]
        with pytest.raises(LayoutError):
            ElectrodeLayout.from_mapping(doc)

    def test_from_mapping_rejects_unknown_keys(self):
        doc = ElectrodeLayout.default().to_mapping()
        doc["0"]["depth"] = 2
        with pytest.raises(LayoutError):
            ElectrodeLayout.from_mapping(doc)

    @pytest.mark.parametrize("value", [1.5, "2", True], ids=["float", "string", "bool"])
    @pytest.mark.parametrize("key", ["strip", "contact", "hemisphere"])
    def test_from_mapping_rejects_non_integer_positions(self, key, value):
        doc = ElectrodeLayout.default().to_mapping()
        doc["5"][key] = value
        with pytest.raises(LayoutError, match=f"channel 5: {key} must be an integer"):
            ElectrodeLayout.from_mapping(doc)

    def test_from_mapping_rejects_wrong_channels(self):
        doc = ElectrodeLayout.default().to_mapping()
        doc["16"] = doc.pop("0")
        with pytest.raises(LayoutError):
            ElectrodeLayout.from_mapping(doc)

    def test_load_rejects_bad_json(self, tmp_path):
        path = tmp_path / "layout.json"
        path.write_text("not json")
        with pytest.raises(LayoutError):
            ElectrodeLayout.load(path)


class TestReshape:
    def segments(self, n=3, seed=0):
        return seeded_rng(seed).normal(size=(n, 16, 3000)).astype(np.float32)

    def test_input_grids(self):
        assert input_grid("nv1x16") == (16, 3000)
        assert input_grid("nv4x4") == (4, 4, 3000)
        assert input_grid("nv2x2x4") == (2, 2, 4, 3000)
        with pytest.raises(ConfigError):
            input_grid("nv8x2")

    def test_nv1x16_ignores_layout(self):
        segs = self.segments()
        assert reshape_batch(segs, "nv1x16", None) is segs
        assert reshape_batch(segs, "nv1x16", shuffled_layout(1)) is segs

    def test_default_layout_is_plain_reshape(self):
        segs = self.segments()
        layout = ElectrodeLayout.default()
        assert np.array_equal(reshape_batch(segs, "nv4x4", layout),
                              segs.reshape(3, 4, 4, 3000))
        assert np.array_equal(reshape_batch(segs, "nv2x2x4", layout),
                              segs.reshape(3, 2, 2, 4, 3000))

    @pytest.mark.parametrize("seed", range(50))
    def test_permuted_layout_places_channels(self, seed):
        segs = self.segments()
        layout = shuffled_layout(seed)
        grid = reshape_batch(segs, "nv4x4", layout)
        for ch in range(16):
            assert np.array_equal(grid[:, layout.strips[ch], layout.contacts[ch], :],
                                  segs[:, ch, :])

    @pytest.mark.parametrize("seed", range(50))
    def test_hemisphere_grid_places_channels(self, seed):
        segs = self.segments()
        layout = shuffled_layout(seed)
        grid = reshape_batch(segs, "nv2x2x4", layout)
        for ch in range(16):
            hemi = layout.hemispheres[ch]
            # rank of the channel's strip among the two strips of its hemisphere
            rank = sum(1 for s in set(layout.strips)
                       if s < layout.strips[ch]
                       and layout.hemispheres[layout.strips.index(s)] == hemi)
            cell = (hemi, rank, layout.contacts[ch])
            assert np.array_equal(grid[(slice(None),) + cell + (slice(None),)],
                                  segs[:, ch, :])

    def test_values_only_permuted(self):
        segs = self.segments()
        grid = reshape_batch(segs, "nv4x4", shuffled_layout(9))
        assert np.array_equal(np.sort(grid.ravel()), np.sort(segs.ravel()))

    def test_layout_required(self):
        with pytest.raises(LayoutError):
            reshape_batch(self.segments(), "nv4x4", None)

    def test_hemispheres_required(self):
        no_hemi = ElectrodeLayout([c // 4 for c in range(16)], [c % 4 for c in range(16)])
        with pytest.raises(LayoutError):
            reshape_batch(self.segments(), "nv2x2x4", no_hemi)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            reshape_batch(np.zeros((2, 15, 3000)), "nv1x16")


class TestBuildTopology:
    PARAM_COUNTS = {"nv1x16": 176835, "nv4x4": 86291, "nv2x2x4": 69907}
    FLAT_WIDTHS = {"nv1x16": 2048, "nv4x4": 512, "nv2x2x4": 128}
    #: per topology: the kernel and the pool extents of blocks 1..6, time last
    GEOMETRY = {
        "nv1x16": ([(1, 5), (1, 5), (1, 5), (1, 4), (1, 3), (1, 2)],
                   [(1, 5), (1, 5), (1, 5), (1, 4), (1, 3), (1, 2)]),
        "nv4x4": ([(1, 2, 5), (1, 2, 5), (1, 2, 5), (1, 1, 4), (1, 1, 3), (1, 1, 2)],
                  [(1, 1, 5), (1, 2, 5), (1, 2, 5), (1, 1, 4), (1, 1, 3), (1, 1, 2)]),
        "nv2x2x4": ([(1, 1, 2, 5), (1, 1, 2, 5), (1, 2, 1, 5),
                     (2, 1, 1, 4), (1, 1, 1, 3), (1, 1, 1, 2)],
                    [(1, 1, 2, 5), (1, 1, 2, 5), (1, 2, 1, 5),
                     (2, 1, 1, 4), (1, 1, 1, 3), (1, 1, 1, 2)]),
    }

    def build(self, topology, seed=0):
        return build_topology(topology, ElectrodeLayout.default(),
                              seeded_rng(seed).split("model"))

    @pytest.mark.parametrize("topology", TOPOLOGIES)
    def test_layer_count(self, topology):
        spec, network = self.build(topology)
        assert spec.n_layers == 31
        assert len(network.layers) == 32  # flatten is in the stack but not counted

    @pytest.mark.parametrize("topology", TOPOLOGIES)
    def test_block_geometry_pinned(self, topology):
        kernels, pools = self.GEOMETRY[topology]
        assert _block_geometry(topology) == list(zip(kernels, pools, [16, 32, 32, 64, 64, 128]))
        spec, _ = self.build(topology)
        assert [d.kernel for d in spec.layers if d.kind == "conv"] == kernels
        assert [d.pool for d in spec.layers if d.kind == "maxpool"] == pools

    @pytest.mark.parametrize("topology", TOPOLOGIES)
    def test_spec_describes_network(self, topology):
        spec, network = self.build(topology)
        # per-layer benchmark timings wrap forward and backward on each class
        for layer in network.layers:
            assert {"forward", "backward"} <= set(vars(type(layer))), type(layer)
        assert [d.name for d in spec.layers] == [layer.name for layer in network.layers]
        for desc, layer in zip(spec.layers, network.layers):
            assert desc.kind == type(layer).__name__.lower()
        assert spec.n_layers == len(network.layers) - 1

    @pytest.mark.parametrize("topology", TOPOLOGIES)
    def test_output_is_probability(self, topology):
        _, network = self.build(topology)
        segs = seeded_rng(1).normal(size=(2, 16, 3000)).astype(np.float32)
        x = reshape_batch(segs, topology, ElectrodeLayout.default())
        out = network.forward(x, INFER)
        assert out.shape == (2, 1)
        assert np.all((out > 0.0) & (out < 1.0))

    @pytest.mark.parametrize("topology", TOPOLOGIES)
    def test_pool_schedule_consumes_time_axis(self, topology):
        spec, _ = self.build(topology)
        pools = np.array([d.pool for d in spec.layers if d.kind == "maxpool"])
        per_axis = np.prod(pools, axis=0)
        assert per_axis[-1] == 3000  # time axis collapses to a single sample
        remaining = np.array(spec.input_grid) // per_axis
        assert int(remaining.prod()) * 128 == self.FLAT_WIDTHS[topology]

    @pytest.mark.parametrize("topology", TOPOLOGIES)
    def test_parameter_count(self, topology):
        _, network = self.build(topology)
        total = sum(v.size for v in network.params().values())
        assert total == self.PARAM_COUNTS[topology]

    @pytest.mark.parametrize("topology", TOPOLOGIES)
    def test_hidden_dense_width(self, topology):
        spec, _ = self.build(topology)
        assert spec.manifest["dense1.weights"].shape == (64, self.FLAT_WIDTHS[topology])
        assert spec.manifest["dense2.weights"].shape == (1, 64)

    @pytest.mark.parametrize("topology", TOPOLOGIES)
    def test_block_order(self, topology):
        _, network = self.build(topology)
        names = [layer.name for layer in network.layers]
        for i in range(1, 7):
            start = names.index(f"conv{i}")
            assert names[start:start + 4] == [f"conv{i}", f"bn{i}", f"pool{i}", f"act{i}"]

    @pytest.mark.parametrize("topology", TOPOLOGIES)
    def test_pool_before_relu_is_exact(self, topology):
        """Swapping each block back to ReLU before pool, over the same layer
        objects, changes no output or gradient bit."""
        _, network = self.build(topology)
        layers = list(network.layers)
        for i in [i for i, layer in enumerate(layers) if layer.name.startswith("pool")]:
            layers[i], layers[i + 1] = layers[i + 1], layers[i]
        old = Network(layers, input_grid=network.input_grid)
        assert [layer.name for layer in old.layers][1:5] == ["conv1", "bn1", "act1", "pool1"]
        rng = seeded_rng(5)
        segs = rng.split("x").normal(size=(4, 16, 3000)).astype(np.float32)
        x = reshape_batch(segs, topology, ElectrodeLayout.default())
        upstream = rng.split("up").normal(size=(4, 1)).astype(np.float32)

        def run(net):
            out = net.forward(x, TRAIN, seeded_rng(6).split("dropout"))
            grad = net.backward(upstream)
            grads = {k: v.copy() for k, v in net.grads().items()}
            return out, grad, grads

        new_out, new_grad, new_grads = run(network)
        old_out, old_grad, old_grads = run(old)
        assert new_out.tobytes() == old_out.tobytes()
        assert new_grad.tobytes() == old_grad.tobytes()
        assert new_grads.keys() == old_grads.keys()
        for key, value in new_grads.items():
            assert value.tobytes() == old_grads[key].tobytes(), key
        assert network.forward(x, INFER).tobytes() == old.forward(x, INFER).tobytes()

    def test_nv1x16_convs_never_mix_channels(self):
        spec, _ = self.build("nv1x16")
        kernels = [info.shape for name, info in spec.manifest.items()
                   if name.startswith("conv") and name.endswith(".kernel")]
        assert len(kernels) == 6
        assert all(shape[2] == 1 for shape in kernels)

    def test_manifest_seed_independent(self):
        spec_a, net_a = self.build("nv4x4", seed=0)
        spec_b, net_b = self.build("nv4x4", seed=1)
        assert spec_a.manifest == spec_b.manifest
        assert not np.array_equal(net_a.params()["conv1.kernel"],
                                  net_b.params()["conv1.kernel"])

    def test_same_seed_same_parameters(self):
        _, net_a = self.build("nv1x16", seed=7)
        _, net_b = self.build("nv1x16", seed=7)
        for key, value in net_a.params().items():
            assert np.array_equal(value, net_b.params()[key])

    def test_manifest_marks_regularized(self):
        spec, _ = self.build("nv4x4")
        assert spec.manifest["conv1.kernel"].regularized
        assert spec.manifest["dense1.weights"].regularized
        assert not spec.manifest["conv1.bias"].regularized
        assert not spec.manifest["bn1.gamma"].regularized
        assert not spec.manifest["bn1.running_mean"].trainable

    def test_layout_requirements(self):
        rng = seeded_rng(0).split("model")
        spec, _ = build_topology("nv1x16", None, rng)
        assert spec.topology == "nv1x16"
        with pytest.raises(LayoutError):
            build_topology("nv4x4", None, seeded_rng(0).split("model"))
        no_hemi = ElectrodeLayout([c // 4 for c in range(16)], [c % 4 for c in range(16)])
        with pytest.raises(LayoutError):
            build_topology("nv2x2x4", no_hemi, seeded_rng(0).split("model"))

    def test_unknown_topology(self):
        with pytest.raises(ConfigError):
            build_topology("nv16x1", None, seeded_rng(0).split("model"))
