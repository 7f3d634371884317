"""Forward-only block assemblies that use the circular operators as drop-ins.

Two structures are modeled.  The metaformer-style block splits channels,
runs serial H-then-V / V-then-H circular sweeps as its token mixer under a
residual, then a channel mixer (pointwise MLP gated by channel attention)
under a second residual.  The convnet mixer is the grouped alternative:
H-swept and V-swept halves side by side with no channel interaction and no
residual of its own (its host block owns that).

Normalization layers are intentionally absent; these blocks exist for
numeric contracts (shape, identity, receptive field), not training.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .parc_spatial import ParCParams, parc_forward, random_params
from .tensor import Tensor4, finite_field


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


@dataclass(frozen=True)
class ChannelAttentionParams:
    """Squeeze-style gate: pool, two-layer MLP (C -> C/r -> C), logistic."""

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray

    def __post_init__(self):
        w1, b1, w2, b2 = (finite_field(self, f) for f in ("w1", "b1", "w2", "b2"))
        if w1.ndim != 2 or w2.ndim != 2 or w1.shape != w2.shape[::-1]:
            raise ValueError("attention MLP needs w1 (hidden, C) and w2 (C, hidden)")
        if b1.shape != (w1.shape[0],) or b2.shape != (w2.shape[0],):
            raise ValueError("attention biases must match their layer widths")

    @property
    def channels(self) -> int:
        return self.w2.shape[0]


def random_channel_attention(rng: np.random.Generator, channels: int,
                             reduction: int = 4, scale: float = 0.5) -> ChannelAttentionParams:
    hidden = max(1, channels // reduction)
    return ChannelAttentionParams(
        w1=rng.uniform(-1, 1, (hidden, channels)) * scale,
        b1=rng.uniform(-1, 1, hidden) * scale,
        w2=rng.uniform(-1, 1, (channels, hidden)) * scale,
        b2=rng.uniform(-1, 1, channels) * scale,
    )


def channel_attention(x: Tensor4, p: ChannelAttentionParams) -> Tensor4:
    """Scale each channel by a pooled, squashed per-(batch, channel) gate.

    The gate is sigmoid(w2 @ relu(w1 @ mean_hw(x) + b1) + b2), strictly
    inside (0, 1), broadcast over the spatial axes.
    """
    if x.shape[1] != p.channels:
        raise ValueError(f"input carries {x.shape[1]} channels, attention expects {p.channels}")
    pooled = x.data.mean(axis=(2, 3))
    hidden = np.maximum(pooled @ p.w1.T + p.b1, 0.0)
    gate = _sigmoid(hidden @ p.w2.T + p.b2).astype(x.dtype)
    return Tensor4(x.data * gate[:, :, None, None])


def _require_depthwise(p: ParCParams, orientation: str, channels: int, label: str):
    if p.mode != "depthwise" or p.orientation != orientation or p.channels_in != channels:
        raise ValueError(f"{label} must be depthwise, orientation {orientation}, {channels} channels")


@dataclass(frozen=True)
class ConvNetMixerParams:
    """Parallel grouped sweep: H over channels [0, C/2), V over [C/2, C)."""

    parc_h: ParCParams
    parc_v: ParCParams

    def __post_init__(self):
        if self.parc_h.channels_in != self.parc_v.channels_in:
            raise ValueError("both halves must hold the same channel count")
        _require_depthwise(self.parc_h, "H", self.parc_h.channels_in, "parc_h")
        _require_depthwise(self.parc_v, "V", self.parc_v.channels_in, "parc_v")

    @property
    def channels(self) -> int:
        return 2 * self.parc_h.channels_in


def random_convnet_mixer(rng: np.random.Generator, channels: int, **kw) -> ConvNetMixerParams:
    if channels % 2:
        raise ValueError(f"channel count must be even, got {channels}")
    half = channels // 2
    return ConvNetMixerParams(
        parc_h=random_params(rng, half, orientation="H", **kw),
        parc_v=random_params(rng, half, orientation="V", **kw),
    )


def split_sweep(x: Tensor4, first: ParCParams, second: ParCParams, route) -> Tensor4:
    """route(., first) on channels [0, C/2), route(., second) on [C/2, C), concatenated."""
    half = x.shape[1] // 2
    top = route(Tensor4(x.data[:, :half]), first)
    bot = route(Tensor4(x.data[:, half:]), second)
    return Tensor4(np.concatenate([top.data, bot.data], axis=1))


def convnet_mixer_forward(x: Tensor4, p: ConvNetMixerParams) -> Tensor4:
    """Sweep the first half of the channels along H and the rest along V."""
    if x.shape[1] != p.channels:
        raise ValueError(f"input carries {x.shape[1]} channels, mixer expects {p.channels}")
    return split_sweep(x, p.parc_h, p.parc_v, parc_forward)


@dataclass(frozen=True)
class MetaFormerBlockParams:
    """Token mixer (serial circular sweeps per half) plus gated channel MLP.

    first_h/first_v act on channels [0, C/2) in H-then-V order;
    second_v/second_h act on [C/2, C) in V-then-H order.  The channel mixer
    is w2 @ tanh(w1 @ u + b1) + b2 applied pointwise, then channel attention.
    """

    first_h: ParCParams
    first_v: ParCParams
    second_v: ParCParams
    second_h: ParCParams
    mlp_w1: np.ndarray
    mlp_b1: np.ndarray
    mlp_w2: np.ndarray
    mlp_b2: np.ndarray
    attention: ChannelAttentionParams

    def __post_init__(self):
        half = self.first_h.channels_in
        _require_depthwise(self.first_h, "H", half, "first_h")
        _require_depthwise(self.first_v, "V", half, "first_v")
        _require_depthwise(self.second_v, "V", half, "second_v")
        _require_depthwise(self.second_h, "H", half, "second_h")
        c = 2 * half
        w1, b1, w2, b2 = (finite_field(self, f) for f in ("mlp_w1", "mlp_b1", "mlp_w2", "mlp_b2"))
        if w1.ndim != 2 or w1.shape[1] != c:
            raise ValueError(f"mlp_w1 must be (hidden, {c})")
        if w2.shape != (c, w1.shape[0]) or b1.shape != (w1.shape[0],) or b2.shape != (c,):
            raise ValueError("channel-mixer MLP shapes are inconsistent")
        if self.attention.channels != c:
            raise ValueError(f"attention expects {self.attention.channels} channels, block has {c}")

    @property
    def channels(self) -> int:
        return 2 * self.first_h.channels_in


def random_metaformer(rng: np.random.Generator, channels: int,
                      hidden: int | None = None, **kw) -> MetaFormerBlockParams:
    if channels % 2:
        raise ValueError(f"channel count must be even, got {channels}")
    half = channels // 2
    hidden = hidden if hidden is not None else 2 * channels
    scale = 0.3 / channels
    return MetaFormerBlockParams(
        first_h=random_params(rng, half, orientation="H", **kw),
        first_v=random_params(rng, half, orientation="V", **kw),
        second_v=random_params(rng, half, orientation="V", **kw),
        second_h=random_params(rng, half, orientation="H", **kw),
        mlp_w1=rng.uniform(-1, 1, (hidden, channels)) * scale,
        mlp_b1=rng.uniform(-1, 1, hidden) * scale,
        mlp_w2=rng.uniform(-1, 1, (channels, hidden)) * scale,
        mlp_b2=rng.uniform(-1, 1, channels) * scale,
        attention=random_channel_attention(rng, channels),
    )


def _token_mixer(x: Tensor4, p: MetaFormerBlockParams) -> np.ndarray:
    mid = split_sweep(x, p.first_h, p.second_v, parc_forward)
    return split_sweep(mid, p.first_v, p.second_h, parc_forward).data


def metaformer_block_forward(x: Tensor4, p: MetaFormerBlockParams) -> Tensor4:
    """u = x + TokenMixer(x); y = u + Attention(MLP(u)).  Shape-preserving."""
    if x.shape[1] != p.channels:
        raise ValueError(f"input carries {x.shape[1]} channels, block expects {p.channels}")
    u = x.data + _token_mixer(x, p)
    # pointwise layers as BLAS matmuls over (B, C, H*W); einsum would run a C loop
    cast = lambda a: a.astype(x.dtype)
    h = np.tanh(cast(p.mlp_w1) @ u.reshape(x.shape[0], p.channels, -1) + cast(p.mlp_b1)[:, None])
    m = (cast(p.mlp_w2) @ h + cast(p.mlp_b2)[:, None]).reshape(x.shape)
    gated = channel_attention(Tensor4(m), p.attention)
    return Tensor4(u + gated.data)


def perturbation_support(fn, x: Tensor4, channel: int, i: int, j: int,
                         delta: float = 1.0) -> np.ndarray:
    """Boolean (C, H, W) mask of outputs moved by bumping x[:, channel, i, j].

    Exact comparison, no tolerance: untouched outputs must match bit for bit,
    which holds for these operators because unperturbed terms are recomputed
    identically.
    """
    base = fn(x)
    bumped = x.data.copy()
    bumped[:, channel, i, j] += delta
    moved = fn(Tensor4(bumped))
    return (moved.data != base.data).any(axis=0)
