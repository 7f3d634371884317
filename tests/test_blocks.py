"""Block assemblies: gate behavior, identity configurations, receptive fields."""

import numpy as np
import pytest

from parc import blocks
from parc.blocks import (
    ChannelAttentionParams,
    ConvNetMixerParams,
    MetaFormerBlockParams,
    channel_attention,
    convnet_mixer_forward,
    metaformer_block_forward,
    perturbation_support,
    random_channel_attention,
    random_convnet_mixer,
    random_metaformer,
    split_sweep,
)
from parc.fast_parc import fast_parc_forward
from parc.parc_spatial import ParCParams, parc_forward, parc_forward_via_concat, random_params
from parc.tensor import Tensor4


def delta_params(channels, n, orientation):
    kernel = np.zeros((channels, n))
    kernel[:, 0] = 1.0
    return ParCParams("depthwise", orientation, kernel,
                      np.zeros((channels, n)), np.zeros(channels))


class TestChannelAttention:
    def test_zero_weights_halve_the_input(self):
        # all-zero MLP drives the logistic to exactly 1/2
        p = ChannelAttentionParams(np.zeros((1, 4)), np.zeros(1),
                                   np.zeros((4, 1)), np.zeros(4))
        x = Tensor4(np.random.default_rng(0).standard_normal((2, 4, 3, 3)))
        y = channel_attention(x, p)
        assert np.array_equal(y.data, 0.5 * x.data)

    def test_gate_formula_against_scalar_recompute(self):
        rng = np.random.default_rng(1)
        p = random_channel_attention(rng, 4, reduction=2)
        x = Tensor4(rng.standard_normal((2, 4, 5, 6)))
        y = channel_attention(x, p)
        for b in range(2):
            pooled = x.data[b].mean(axis=(1, 2))
            hidden = np.maximum(p.w1 @ pooled + p.b1, 0.0)
            gate = 1.0 / (1.0 + np.exp(-(p.w2 @ hidden + p.b2)))
            for c in range(4):
                assert np.allclose(y.data[b, c], x.data[b, c] * gate[c], atol=1e-12)

    def test_per_channel_ratio_is_constant_and_bounded(self):
        rng = np.random.default_rng(2)
        p = random_channel_attention(rng, 6)
        x = Tensor4(rng.uniform(0.5, 1.5, (1, 6, 4, 4)))
        y = channel_attention(x, p)
        ratio = y.data / x.data
        for c in range(6):
            vals = ratio[0, c]
            assert np.allclose(vals, vals.flat[0], atol=1e-12)
            assert 0.0 < vals.flat[0] < 1.0

    def test_extreme_logits_stay_finite(self):
        p = ChannelAttentionParams(np.full((1, 2), 500.0), np.zeros(1),
                                   np.array([[1000.0], [-1000.0]]), np.zeros(2))
        x = Tensor4(np.ones((1, 2, 2, 2)))
        y = channel_attention(x, p)
        assert np.isfinite(y.data).all()
        assert np.allclose(y.data[0, 0], 1.0)
        assert np.allclose(y.data[0, 1], 0.0)

    def test_channel_mismatch(self):
        p = random_channel_attention(np.random.default_rng(3), 4)
        with pytest.raises(ValueError, match="channels"):
            channel_attention(Tensor4.zeros((1, 3, 2, 2)), p)

    def test_shape_validation(self):
        with pytest.raises(ValueError, match="w1"):
            ChannelAttentionParams(np.zeros((2, 4)), np.zeros(2),
                                   np.zeros((3, 2)), np.zeros(3))
        with pytest.raises(ValueError, match="biases"):
            ChannelAttentionParams(np.zeros((2, 4)), np.zeros(3),
                                   np.zeros((4, 2)), np.zeros(4))


class TestConvNetMixer:
    def test_delta_kernels_make_identity(self):
        rng = np.random.default_rng(10)
        x = Tensor4(rng.standard_normal((2, 4, 5, 5)))
        p = ConvNetMixerParams(delta_params(2, 5, "H"), delta_params(2, 5, "V"))
        y = convnet_mixer_forward(x, p)
        assert np.array_equal(y.data, x.data)

    def test_shape_preserved(self):
        rng = np.random.default_rng(11)
        p = random_convnet_mixer(rng, 6)
        x = Tensor4(rng.standard_normal((3, 6, 4, 7)))
        assert convnet_mixer_forward(x, p).shape == (3, 6, 4, 7)

    def test_halves_do_not_interact(self):
        rng = np.random.default_rng(12)
        p = random_convnet_mixer(rng, 4)
        x = rng.standard_normal((1, 4, 5, 5))
        y0 = convnet_mixer_forward(Tensor4(x), p).data
        xb = x.copy()
        xb[:, 3] += 1.0
        y1 = convnet_mixer_forward(Tensor4(xb), p).data
        assert np.array_equal(y0[:, :2], y1[:, :2])

    def test_cruciform_support(self):
        rng = np.random.default_rng(13)
        half, n = 2, 6
        mk_h = rng.uniform(0.2, 1.2, (half, n))
        mk_v = rng.uniform(0.2, 1.2, (half, n))
        p = ConvNetMixerParams(
            ParCParams("depthwise", "H", mk_h, np.zeros((half, n)), np.zeros(half)),
            ParCParams("depthwise", "V", mk_v, np.zeros((half, n)), np.zeros(half)),
        )
        x = Tensor4(rng.standard_normal((1, 4, n, n)))
        run = lambda t: convnet_mixer_forward(t, p)

        mask_h = perturbation_support(run, x, 0, 2, 3)
        want = np.zeros((4, n, n), dtype=bool)
        want[0, :, 3] = True
        assert np.array_equal(mask_h, want)

        mask_v = perturbation_support(run, x, 2, 2, 3)
        want = np.zeros((4, n, n), dtype=bool)
        want[2, 2, :] = True
        assert np.array_equal(mask_v, want)

    def test_rejects_odd_channels(self):
        with pytest.raises(ValueError, match="even"):
            random_convnet_mixer(np.random.default_rng(14), 5)

    def test_rejects_wrong_orientation_halves(self):
        rng = np.random.default_rng(15)
        h = random_params(rng, 2, orientation="H")
        with pytest.raises(ValueError, match="orientation V"):
            ConvNetMixerParams(h, random_params(rng, 2, orientation="H"))

    def test_input_channel_mismatch(self):
        rng = np.random.default_rng(16)
        p = random_convnet_mixer(rng, 4)
        with pytest.raises(ValueError, match="channels"):
            convnet_mixer_forward(Tensor4.zeros((1, 6, 4, 4)), p)


class TestMetaFormerBlock:
    def test_zero_everything_is_identity(self):
        n = 4
        zero = lambda o: ParCParams("depthwise", o, np.zeros((2, n)),
                                    np.zeros((2, n)), np.zeros(2))
        p = MetaFormerBlockParams(
            first_h=zero("H"), first_v=zero("V"),
            second_v=zero("V"), second_h=zero("H"),
            mlp_w1=np.zeros((3, 4)), mlp_b1=np.zeros(3),
            mlp_w2=np.zeros((4, 3)), mlp_b2=np.zeros(4),
            attention=ChannelAttentionParams(np.zeros((1, 4)), np.zeros(1),
                                             np.zeros((4, 1)), np.zeros(4)),
        )
        rng = np.random.default_rng(20)
        x = Tensor4(rng.standard_normal((2, 4, n, n)))
        y = metaformer_block_forward(x, p)
        # token mixer adds zero, MLP emits zero, gate scales zero: x survives
        assert np.array_equal(y.data, x.data)

    def test_shape_preserved_random(self):
        rng = np.random.default_rng(21)
        p = random_metaformer(rng, 6)
        for shape in ((1, 6, 3, 5), (2, 6, 7, 2)):
            x = Tensor4(rng.standard_normal(shape))
            assert metaformer_block_forward(x, p).shape == shape

    def test_token_mixer_under_residual(self):
        # delta sweeps turn the mixer into identity, so u = 2x before the MLP
        n = 4
        p = MetaFormerBlockParams(
            first_h=delta_params(1, n, "H"), first_v=delta_params(1, n, "V"),
            second_v=delta_params(1, n, "V"), second_h=delta_params(1, n, "H"),
            mlp_w1=np.zeros((2, 2)), mlp_b1=np.zeros(2),
            mlp_w2=np.zeros((2, 2)), mlp_b2=np.zeros(2),
            attention=ChannelAttentionParams(np.zeros((1, 2)), np.zeros(1),
                                             np.zeros((2, 1)), np.zeros(2)),
        )
        rng = np.random.default_rng(22)
        x = Tensor4(rng.standard_normal((1, 2, n, n)))
        y = metaformer_block_forward(x, p)
        assert np.allclose(y.data, 2.0 * x.data, atol=1e-12)

    def test_full_plane_support(self):
        rng = np.random.default_rng(23)
        p = random_metaformer(rng, 4, kernel_scale=0.5, pe_scale=0.1)
        x = Tensor4(rng.standard_normal((1, 4, 5, 5)))
        mask = perturbation_support(lambda t: metaformer_block_forward(t, p), x, 1, 2, 2)
        assert mask.all()

    def test_mlp_shape_validation(self):
        rng = np.random.default_rng(24)
        half = random_params(rng, 2, orientation="H")
        with pytest.raises(ValueError, match="mlp_w1"):
            MetaFormerBlockParams(
                first_h=half, first_v=random_params(rng, 2, orientation="V"),
                second_v=random_params(rng, 2, orientation="V"),
                second_h=random_params(rng, 2, orientation="H"),
                mlp_w1=np.zeros((3, 5)), mlp_b1=np.zeros(3),
                mlp_w2=np.zeros((4, 3)), mlp_b2=np.zeros(4),
                attention=random_channel_attention(rng, 4),
            )

    def test_rejects_odd_channels(self):
        with pytest.raises(ValueError, match="even"):
            random_metaformer(np.random.default_rng(25), 7)

    def test_input_channel_mismatch(self):
        rng = np.random.default_rng(26)
        p = random_metaformer(rng, 4)
        with pytest.raises(ValueError, match="channels"):
            metaformer_block_forward(Tensor4.zeros((1, 6, 4, 4)), p)


def halves(x):
    half = x.shape[1] // 2
    return (Tensor4(np.ascontiguousarray(x.data[:, :half])),
            Tensor4(np.ascontiguousarray(x.data[:, half:])))


def per_half_mixer(x, p):
    """The token mixer written out per half, without split_sweep."""
    first, second = halves(x)
    first = parc_forward(parc_forward(first, p.first_h), p.first_v)
    second = parc_forward(parc_forward(second, p.second_v), p.second_h)
    return np.concatenate([first.data, second.data], axis=1)


def split_sweep_mixer(x, p):
    """The token mixer as two split_sweep rounds, each concatenating its halves."""
    mid = split_sweep(x, p.first_h, p.second_v, parc_forward)
    return split_sweep(mid, p.first_v, p.second_h, parc_forward).data


def block_reference(x, p, mixer=per_half_mixer):
    """metaformer_block_forward composed from a reference token mixer."""
    u = mixer(x, p) + x.data
    cast = lambda a: a.astype(x.dtype)
    lines = u.reshape(x.shape[0], x.shape[1], -1)
    h = np.tanh(np.matmul(cast(p.mlp_w1), lines) + cast(p.mlp_b1)[:, None])
    m = (np.matmul(cast(p.mlp_w2), h) + cast(p.mlp_b2)[:, None]).reshape(x.shape)
    return u + channel_attention(Tensor4(m), p.attention).data


class TestSplitSweep:
    @pytest.mark.parametrize("route", [parc_forward, parc_forward_via_concat, fast_parc_forward])
    def test_equals_per_half_route_calls(self, route):
        rng = np.random.default_rng(30)
        x = Tensor4(rng.standard_normal((2, 6, 9, 7)))
        ph = random_params(rng, 3, orientation="H")
        pv = random_params(rng, 3, orientation="V")
        top, bot = halves(x)
        want = np.concatenate([route(top, ph).data, route(bot, pv).data], axis=1)
        assert split_sweep(x, ph, pv, route).data.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_convnet_mixer_matches_per_half_reference(self, dtype):
        rng = np.random.default_rng(31)
        p = random_convnet_mixer(rng, 6)
        x = Tensor4(rng.standard_normal((2, 6, 5, 8)).astype(dtype))
        top, bot = halves(x)
        want = np.concatenate([parc_forward(top, p.parc_h).data,
                               parc_forward(bot, p.parc_v).data], axis=1)
        assert convnet_mixer_forward(x, p).data.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_metaformer_block_matches_per_half_reference(self, dtype):
        rng = np.random.default_rng(32)
        p = random_metaformer(rng, 6, kernel_scale=0.2)
        x = Tensor4(rng.standard_normal((2, 6, 5, 8)).astype(dtype))
        got = metaformer_block_forward(x, p).data
        assert got.tobytes() == block_reference(x, p).tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
    @pytest.mark.parametrize("shape", [(1, 8, 7, 13), (2, 8, 7, 13), (1, 8, 50, 83),
                                       (2, 8, 50, 83), (2, 8, 3, 40)])
    def test_metaformer_block_matches_split_sweep_composition(self, shape, dtype):
        # the halves of the mixer run back to back, each adding its input into
        # one output; that must give the bits of two split_sweep rounds plus
        # the residual, on the circulant branch and on the thin 3x40 map's tap loop
        rng = np.random.default_rng(35)
        p = random_metaformer(rng, shape[1], kernel_scale=1.0 / max(shape[2:]))
        x = Tensor4(rng.standard_normal(shape).astype(dtype))
        want = split_sweep_mixer(x, p) + x.data
        assert blocks._token_mixer(x, p).tobytes() == want.tobytes()
        got = metaformer_block_forward(x, p).data
        assert got.tobytes() == block_reference(x, p, split_sweep_mixer).tobytes()


class TestRouteLookup:
    """The blocks call the modulo route through the module global
    ``blocks.parc_forward``, looked up at call time.  perfbench patches that
    name to time its ``parc_spatial.fwd_modulo`` span, so a block that bound
    the route at import, or called another route, would silence the span."""

    @pytest.fixture
    def calls(self, monkeypatch):
        seen = []

        def counting(x, p):
            seen.append(p.orientation)
            return parc_forward(x, p)

        monkeypatch.setattr(blocks, "parc_forward", counting)
        return seen

    def test_metaformer_block_makes_four_calls(self, calls):
        rng = np.random.default_rng(33)
        p = random_metaformer(rng, 4)
        metaformer_block_forward(Tensor4(rng.standard_normal((1, 4, 5, 6))), p)
        assert calls == ["H", "V", "V", "H"]

    def test_convnet_mixer_makes_two_calls(self, calls):
        rng = np.random.default_rng(34)
        p = random_convnet_mixer(rng, 4)
        convnet_mixer_forward(Tensor4(rng.standard_normal((1, 4, 5, 6))), p)
        assert calls == ["H", "V"]
