import threading
import tracemalloc

import numpy as np
import pytest

from decohd import model, ops
from decohd.baselines import PrototypeTable
from decohd.encoding import EncoderConfig, RandomProjectionEncoder
from decohd.inference import score_batch, stream_scores
from decohd.model import (
    ChannelBank,
    ModelConfig,
    ModelParams,
    init_params,
    materialize_channels,
    materialize_projectors,
    path_basis,
    pick_class,
    stream_channels,
)
from decohd.ops import generate_matrix
from tests.conftest import (
    GAUSSIAN_DTYPES,
    LAYER_SHAPES,
    assert_same_bits,
    brute_force_logits,
    held,
    identity_standardizer,
    integer_bank_and_head,
    layer_index_arrays,
)


def logits(h, bank, head):
    """Scores of one hypervector through the batched forward."""
    return score_batch(np.asarray(h)[None], bank, head)[0]


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ModelConfig(channels_per_layer=(), latent_dim=2, dim=4, num_classes=2)
        with pytest.raises(ValueError):
            ModelConfig(channels_per_layer=(0,), latent_dim=2, dim=4, num_classes=2)
        with pytest.raises(ValueError):
            ModelConfig(channels_per_layer=(2,), latent_dim=2, dim=4, num_classes=1)

    def test_num_paths(self):
        cfg = ModelConfig(channels_per_layer=(2, 3, 4), latent_dim=2, dim=4, num_classes=2)
        assert cfg.num_paths == 24
        assert cfg.num_layers == 3


class TestInitParams:
    def test_head_uniform(self):
        cfg = ModelConfig(channels_per_layer=(2, 2), latent_dim=3, dim=5, num_classes=3)
        params = init_params(cfg)
        assert np.all(params.head == 0.25)

    def test_deterministic(self):
        cfg = ModelConfig(channels_per_layer=(2,), latent_dim=4, dim=6, num_classes=2, seed=11)
        a = init_params(cfg)
        b = init_params(cfg)
        assert a.head.tobytes() == b.head.tobytes()
        for la, lb in zip(a.latents, b.latents):
            assert la.tobytes() == lb.tobytes()

    def test_sigma_moments(self):
        # Unit-variance latents: channel entries come out O(1).
        cfg = ModelConfig(channels_per_layer=(10,), latent_dim=10000, dim=4, num_classes=2, seed=1)
        latents = init_params(cfg).latents[0]
        assert abs(latents.mean()) < 0.01
        assert abs(latents.std() - 1.0) < 0.05


def counting_bank(channels):
    """A bank of dim len(channels) whose layer-i channel l is l + 1 in
    entry i and 1 elsewhere: entry i of a path's binding is 1 + the
    channel that path takes in layer i."""
    n = len(channels)
    return ChannelBank([1.0 + np.arange(l)[:, None] * np.eye(n)[i] for i, l in enumerate(channels)])


class TestPathEnumeration:
    """The flat path order of the kept basis and of the streamed forward."""

    @staticmethod
    def path(flat, channels):
        """Each layer's channel on flat path *flat*, read off the basis."""
        return tuple(int(v) - 1 for v in path_basis(counting_bank(channels))[flat])

    @staticmethod
    def streamed_path(flat, channels):
        """The same, read off the streamed forward: a one-hot head picks
        path *flat* and a unit input picks the layer's entry."""
        bank = counting_bank(channels)
        head = np.eye(bank.num_paths)[[flat]]
        return tuple(int(stream_scores(e, bank, head)[0]) - 1 for e in np.eye(len(channels)))

    def test_row_major_last_layer_fastest(self):
        channels = (2, 3)
        assert self.path(0, channels) == (0, 0)
        assert self.path(1, channels) == (0, 1)
        assert self.path(3, channels) == (1, 0)

    def test_bijection_roundtrip(self):
        channels = (2, 3, 4)
        seen = set()
        for flat in range(24):
            multi = self.path(flat, channels)
            seen.add(multi)
            assert np.ravel_multi_index(multi, channels) == flat
        assert len(seen) == 24

    def test_index_arrays_match(self):
        channels = (3, 2, 2)
        idx = layer_index_arrays(channels)
        for flat in range(12):
            expected = tuple(int(a[flat]) for a in idx)
            assert self.path(flat, channels) == expected
            assert self.streamed_path(flat, channels) == expected


class TestMaterializeChannels:
    def test_zero_latent_zero_channel(self):
        params = ModelParams(latents=[np.zeros((1, 3))], head=np.ones((2, 1)))
        bank = materialize_channels(params, [held(np.ones((3, 5)))])
        np.testing.assert_array_equal(bank.channels[0], np.zeros((1, 5)))

    def test_hand_matrix_vector(self):
        params = ModelParams(latents=[np.array([[2.0, 3.0]])], head=np.ones((2, 1)))
        proj = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
        bank = materialize_channels(params, [held(proj)])
        np.testing.assert_array_equal(bank.channels[0][0], [2.0, 3.0, 5.0])

    def test_homogeneity(self, rng):
        lat = rng.standard_normal((2, 4))
        proj = rng.standard_normal((4, 7))
        a = materialize_channels(ModelParams([lat], np.ones((2, 2))), [held(proj)])
        b = materialize_channels(ModelParams([2.0 * lat], np.ones((2, 2))), [held(proj)])
        np.testing.assert_allclose(b.channels[0], 2.0 * a.channels[0], rtol=1e-12)

    def test_shape_mismatch(self):
        params = ModelParams(latents=[np.zeros((1, 3))], head=np.ones((2, 1)))
        with pytest.raises(ValueError, match="does not match"):
            materialize_channels(params, [held(np.ones((4, 5)))])

    @pytest.mark.parametrize("latent_dim", [1, 16, 17, 48, 65])
    def test_row_blocks_sum_to_the_product(self, rng, latent_dim):
        # Small integers keep every partial sum over 16-row strips exact.
        lat = rng.integers(-4, 5, (2, latent_dim)).astype(np.float64)
        proj = rng.integers(-4, 5, (latent_dim, 11)).astype(np.float64)
        bank = materialize_channels(ModelParams([lat], np.ones((2, 2))), [held(proj)])
        assert_same_bits(bank.channels[0], lat @ proj)


class TestPathBasis:
    @staticmethod
    def gather_product(bank):
        """Oracle: gather each path's channel per layer and multiply in
        place, first layer to last."""
        idx = layer_index_arrays(bank.channels_per_layer)
        basis = bank.channels[0][idx[0]].copy()
        for channels, index in zip(bank.channels[1:], idx[1:]):
            basis *= channels[index]
        return basis

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("channels", LAYER_SHAPES)
    def test_broadcast_equals_gather_product(self, rng, channels, dtype):
        bank = ChannelBank([rng.standard_normal((l, 40)).astype(dtype) for l in channels])
        basis = path_basis(bank)
        assert_same_bits(basis, self.gather_product(bank))
        assert basis.flags.c_contiguous
        assert not any(np.shares_memory(basis, c) for c in bank.channels)


class TestComposePath:
    """Binding *h* along a path: *h* times the path's row of the basis."""

    def test_identity_channel(self):
        bank = ChannelBank([np.ones((1, 4))])
        h = np.array([1.0, -2.0, 3.0, 0.5])
        np.testing.assert_array_equal(h * path_basis(bank)[0], h)

    def test_hand_two_layer(self):
        bank = ChannelBank([np.array([[1.0, -1.0, 1.0]]), np.array([[2.0, 2.0, 2.0]])])
        z = np.array([1.0, 2.0, 3.0]) * path_basis(bank)[0]
        np.testing.assert_array_equal(z, [2.0, -4.0, 6.0])

    def test_layer_order_irrelevant(self, rng):
        a = rng.integers(-3, 4, 5).astype(float)
        b = rng.integers(-3, 4, 5).astype(float)
        h = rng.integers(-3, 4, 5).astype(float)
        z1 = h * path_basis(ChannelBank([a[None], b[None]]))[0]
        z2 = h * path_basis(ChannelBank([b[None], a[None]]))[0]
        np.testing.assert_array_equal(z1, z2)


class TestClassBundle:
    """The bundle of class c at *h*: its composed prototype times *h*."""

    @staticmethod
    def class_bundle(h, bank, head, cls):
        return (head @ path_basis(bank))[cls] * h

    def test_single_path(self):
        bank = ChannelBank([np.array([[2.0, -1.0]])])
        h = np.array([1.0, 3.0])
        head = np.array([[1.0]])
        np.testing.assert_array_equal(self.class_bundle(h, bank, head, 0), h * [2.0, -1.0])

    def test_zero_weights(self):
        bank = ChannelBank([np.ones((3, 4))])
        out = self.class_bundle(np.ones(4), bank, np.zeros((2, 3)), 1)
        np.testing.assert_array_equal(out, np.zeros(4))

    def test_hand_accumulation(self):
        # Z_1 = [2, 0], Z_2 = [0, 2] via h = [1, 1] and channels [2,0], [0,2]
        bank = ChannelBank([np.array([[2.0, 0.0], [0.0, 2.0]])])
        out = self.class_bundle(np.array([1.0, 1.0]), bank, np.array([[0.5, 0.5]]), 0)
        np.testing.assert_array_equal(out, [1.0, 1.0])


class TestLogits:
    def test_zero_input(self, rng):
        bank, head, _ = integer_bank_and_head(rng)
        np.testing.assert_array_equal(logits(np.zeros(bank.dim), bank, head), np.zeros(3))

    def test_identity_channel_gives_norm_squared(self):
        bank = ChannelBank([np.ones((1, 5))])
        head = np.ones((3, 1))
        h = np.array([1.0, 2.0, -1.0, 0.0, 3.0])
        np.testing.assert_allclose(logits(h, bank, head), np.full(3, 15.0))

    def test_brute_force_oracle(self, rng):
        for _ in range(10):
            bank, head, h = integer_bank_and_head(rng, channels=(2, 3), dim=3)
            np.testing.assert_array_equal(logits(h, bank, head), brute_force_logits(h, bank, head))

    def test_linear_in_head_rows(self, rng):
        bank, head, h = integer_bank_and_head(rng)
        base = logits(h, bank, head)
        scaled = head.copy()
        scaled[1] *= 3.0
        out = logits(h, bank, scaled)
        assert out[1] == 3.0 * base[1]
        assert out[0] == base[0]

    def test_prototype_materialization_identity_exact(self, rng):
        # <Y_c(h), h> == <P_c, h*h> exactly on integer fixtures
        for _ in range(10):
            bank, head, h = integer_bank_and_head(rng, channels=(2, 2), dim=5)
            protos = head @ path_basis(bank)
            np.testing.assert_array_equal(logits(h, bank, head), protos @ (h * h))

    def test_single_layer_identity_head_matches_prototype_scorer(self, rng):
        # N=1, one channel per class, identity head: conventional table
        # whose prototype c is bind(h, A_c).
        dim, num_classes = 6, 3
        bank = ChannelBank([rng.integers(-3, 4, (num_classes, dim)).astype(float)])
        head = np.eye(num_classes)
        h = rng.integers(-3, 4, dim).astype(float)
        table = PrototypeTable(prototypes=bank.channels[0] * h)
        np.testing.assert_array_equal(logits(h, bank, head), table.score_batch(h[None])[0])


class TestPickClass:
    def test_argmax(self):
        assert pick_class(np.array([0.1, 0.9])) == 1

    def test_tie_breaks_low(self):
        assert pick_class(np.array([0.5, 0.5])) == 0

    def test_nan_ranks_below(self):
        assert pick_class(np.array([np.nan, -3.0])) == 1
        assert pick_class(np.array([np.nan, np.nan])) == 0


class TestProjectors:
    def test_projector_scale(self):
        cfg = ModelConfig(channels_per_layer=(1,), latent_dim=400, dim=500, num_classes=2, seed=8)
        proj = np.vstack(materialize_projectors(cfg, dtype=np.float64)[0])
        assert proj.shape == (400, 500)
        assert abs(proj.std() - 1.0 / 20.0) / (1.0 / 20.0) < 0.05

    def test_per_layer_streams_differ(self):
        cfg = ModelConfig(channels_per_layer=(2, 2), latent_dim=4, dim=8, num_classes=2, seed=8)
        a, b = materialize_projectors(cfg)
        assert np.vstack(a).tobytes() != np.vstack(b).tobytes()

    @pytest.mark.parametrize("dtype", GAUSSIAN_DTYPES)
    def test_held_as_64_row_panels(self, dtype):
        # Latent 150: panels of 64, 64 and 22 rows, each its own array,
        # that stack to the whole draw bit for bit.
        cfg = ModelConfig(channels_per_layer=(2, 3), latent_dim=150, dim=40, num_classes=2, seed=8)
        for panels, spec in zip(materialize_projectors(cfg, dtype=dtype), cfg.projector_specs()):
            assert [p.shape for p in panels] == [(64, 40), (64, 40), (22, 40)]
            assert all(p.base is None and p.dtype == dtype for p in panels)
            assert_same_bits(np.vstack(panels), generate_matrix(spec, dtype=dtype))

    @pytest.mark.parametrize("rows", [1, 65, 617])
    @pytest.mark.parametrize("dtype", GAUSSIAN_DTYPES)
    def test_threads_draw_each_spec_bit_for_bit(self, monkeypatch, dtype, rows):
        cfg = ModelConfig(channels_per_layer=(2, 1, 3), latent_dim=rows, dim=40, num_classes=2, seed=8)
        expected = [generate_matrix(s, dtype=dtype) for s in cfg.projector_specs()]
        # Every layer must be drawing before any may finish: a serial
        # loop would break the barrier.
        barrier = threading.Barrier(cfg.num_layers, timeout=10)

        def together(spec, dtype, panels):
            barrier.wait()
            return generate_matrix(spec, dtype, panels)

        monkeypatch.setattr(model, "generate_matrix", together)
        got = materialize_projectors(cfg, dtype=dtype)
        assert len(got) == len(expected)
        for a, b in zip(got, expected):
            assert_same_bits(np.vstack(a), b)

    @pytest.mark.parametrize("cfg", [pytest.param(
        ModelConfig(channels_per_layer=(2, 2, 2), latent_dim=300, dim=1000, num_classes=2, seed=8), id="gaussian")])
    def test_draw_threads_allocate_one_draw_buffer_each(self, monkeypatch, cfg):
        # The panels come from the calling thread's heap, where freed
        # memory can be reused (model._PANEL_ROWS); a draw thread allocates
        # only its draw buffer.  When every layer has drawn its last strip,
        # before any copies it into a panel, the traces whose stacks pass
        # through a worker thread must hold no more than those buffers.
        draw_buffer = ops.STRIP_ROWS * cfg.dim * 8
        barrier = threading.Barrier(cfg.num_layers, timeout=10)
        snapshots = []

        def holding(spec, draw=ops.row_blocks):
            last = -(-spec.rows // ops.STRIP_ROWS) - 1
            for i, strip in enumerate(draw(spec)):
                if i == last:
                    if barrier.wait() == 0:
                        snapshots.append(tracemalloc.take_snapshot())
                    barrier.wait()
                yield strip

        materialize_projectors(cfg)  # the pool's lazy imports come first
        monkeypatch.setattr(ops, "row_blocks", holding)
        tracemalloc.start(64)
        try:
            projectors = materialize_projectors(cfg)
        finally:
            tracemalloc.stop()
        on_threads = sum(
            trace.size for trace in snapshots[0].traces
            if any(frame.filename == threading.__file__ for frame in trace.traceback)
        )
        # The panels are 300 x 1000 x 4 = 1.2 MB per layer.
        assert on_threads <= cfg.num_layers * draw_buffer + 65536
        assert sum(p.nbytes for layer in projectors for p in layer) == 3 * 1_200_000


class TestStreamChannels:
    @pytest.mark.parametrize("latent_dim", [1, 48, 65])
    @pytest.mark.parametrize("dtype", GAUSSIAN_DTYPES)
    def test_equals_the_bank_of_held_projectors(self, monkeypatch, dtype, latent_dim):
        # 16-row strips: 1 is one short strip, 48 three whole ones and 65
        # four whole ones plus a one-row remainder.
        cfg = ModelConfig(channels_per_layer=(2, 1, 3), latent_dim=latent_dim, dim=40, num_classes=2, seed=8)
        params = init_params(cfg, dtype=dtype)
        expected = materialize_channels(params, materialize_projectors(cfg, dtype=dtype))
        # Every layer must be drawing before any may finish: a serial
        # loop would break the barrier.
        barrier = threading.Barrier(cfg.num_layers, timeout=10)

        def together(spec):
            barrier.wait()
            yield from ops.row_blocks(spec)

        monkeypatch.setattr(model, "row_blocks", together)
        got = stream_channels(params, cfg)
        assert len(got.channels) == cfg.num_layers
        for a, b in zip(got.channels, expected.channels):
            assert_same_bits(a, b)

    @pytest.mark.parametrize("spoil", [
        lambda p: ModelParams(p.latents[:-1], p.head),
        lambda p: ModelParams([p.latents[0][:, :-1], *p.latents[1:]], p.head),
        lambda p: ModelParams(p.latents, p.head[:, :-1]),
    ], ids=["layers", "latent_dim", "head"])
    def test_refuses_params_of_another_shape(self, spoil):
        cfg = ModelConfig(channels_per_layer=(2, 3), latent_dim=5, dim=8, num_classes=3, seed=8)
        with pytest.raises(ValueError, match=r"latent and head shapes .*, expected \[\(2, 5\), \(3, 5\), \(3, 6\)\]"):
            stream_channels(spoil(init_params(cfg, dtype=np.float32)), cfg)

    def test_channel_bank_draws_no_whole_projector(self, monkeypatch):
        cfg = ModelConfig(channels_per_layer=(2, 3), latent_dim=50, dim=40, num_classes=3, seed=8)
        params = init_params(cfg, dtype=np.float32)
        expected = materialize_channels(params, materialize_projectors(cfg))
        encoder = RandomProjectionEncoder(EncoderConfig(num_features=5, dim=40, seed=1))

        def refuse(*args, **kwargs):
            raise AssertionError("a deployed model drew a whole projector")

        for target in (model, ops):
            monkeypatch.setattr(target, "generate_matrix", refuse)
        monkeypatch.setattr(model, "materialize_projectors", refuse)
        # The bank is streamed at construction, so the model is built under the patches.
        clf = model.DecoHDClassifier(encoder=encoder, standardizer=identity_standardizer(5), config=cfg, params=params)
        for a, b in zip(clf.channel_bank().channels, expected.channels):
            assert_same_bits(a, b)

    @pytest.mark.parametrize("cfg", [pytest.param(
        ModelConfig(channels_per_layer=(2, 2, 2), latent_dim=2048, dim=1000, num_classes=2, seed=8), id="gaussian")])
    def test_holds_a_block_per_layer_not_a_projector(self, cfg):
        params = init_params(cfg, dtype=np.float32)
        tiny = ModelConfig(channels_per_layer=(1,), latent_dim=2, dim=2, num_classes=2)
        stream_channels(init_params(tiny, np.float32), tiny)  # the pool's lazy imports come first
        # Each layer holds the float32 cast of one strip of its float64 draw buffer.
        strip = ops.STRIP_ROWS * cfg.dim * 4
        draw_buffer = ops.STRIP_ROWS * cfg.dim * 8
        # Each layer also holds one (2, dim) product before adding it.
        channels = 2 * sum(cfg.channels_per_layer) * cfg.dim * 4
        tracemalloc.start()
        try:
            bank = stream_channels(params, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # One projector alone is 2048 x 1000 x 4 = 8.2 MB.
        assert peak <= cfg.num_layers * (strip + draw_buffer) + channels + 131072
        assert bank.channels[0].shape == (2, cfg.dim)
