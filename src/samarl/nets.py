"""Actor and critic architectures.

Two families live here. The MLP family (``MlpActor``, ``MlpCritic``) is the
conventional per-agent setup: each network sees a flat vector. Its n
per-agent networks live in one bank, stacked on a leading group axis, and
run as one grouped forward per layer. The attention family (``CriticNet``,
``AttentionActor``, on one ``AttentionNet`` trunk) consumes a ``[batch, agent,
features]`` layout and shares one set of weights across the agent axis; with
no positional encoding anywhere, permuting the agents permutes the outputs
and nothing else, which is what makes per-agent credit from a shared critic
well defined. Every actor's ``forward`` and ``act`` read that layout too.

All weights initialize uniform in +-1/sqrt(fan_in). Networks are plain
parameter containers: construct with a ``numpy.random.Generator`` and an
optional dtype (float64 is used by the gradient-check suite).
"""

from __future__ import annotations

import copy
import numpy as np

from . import ndmath as nd
from .ndmath import Tensor
from .ndmath.tensor import allocator, attention_kernel, linear_kernel


def _uniform_init(rng: np.random.Generator, shape, fan_in: int, dtype,
                  bound: float | None = None) -> Tensor:
    if bound is None:
        bound = 1.0 / np.sqrt(fan_in)
    return Tensor(rng.uniform(-bound, bound, size=shape), requires_grad=True, dtype=dtype)


# Action heads start near zero so the tanh is far from saturation when the
# critic's early gradients are still noise; without this, deterministic-policy
# training locks the actors against the action bounds before the critic has
# learned anything worth following.
ACTION_HEAD_INIT = 1e-3

class Linear:
    """Affine map ``x @ w + b``, optionally followed by a leaky ReLU of slope
    ``ndmath.LEAKY_SLOPE``. A ``grouped`` layer holds a ``(1, D, K)`` weight
    and a ``(1, 1, K)`` bias, drawn as the ungrouped ones are."""

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator,
                 dtype=np.float32, init_bound: float | None = None,
                 grouped: bool = False):
        w_shape, b_shape = ((1, in_dim, out_dim), (1, 1, out_dim)) if grouped \
            else ((in_dim, out_dim), (out_dim,))
        self.w = _uniform_init(rng, w_shape, in_dim, dtype, init_bound)
        self.b = _uniform_init(rng, b_shape, in_dim, dtype, init_bound)

    def __call__(self, x: Tensor, leaky: bool = False) -> Tensor:
        return nd.linear(x, self.w, self.b, leaky)

    def named_parameters(self, prefix: str = ""):
        return [(prefix + "w", self.w), (prefix + "b", self.b)]


class MlpBank:
    """g MLPs of one shape on a leading group axis, leaky ReLU hidden layers.

    Each layer is one grouped ``Linear``, a ``(g, D, K)`` weight and a
    ``(g, 1, K)`` bias, so a forward runs one grouped ``linear`` per layer for
    all g members. The constructor builds one member (g = 1), drawing as a
    lone network does: layer by layer, weight then bias; ``stack`` joins
    members.
    """

    def __init__(self, dims: list[int], rng: np.random.Generator, dtype,
                 out_bound: float | None = None):
        self.hidden = [Linear(dims[i], dims[i + 1], rng, dtype, grouped=True)
                       for i in range(len(dims) - 2)]
        self.out = Linear(dims[-2], dims[-1], rng, dtype, init_bound=out_bound,
                          grouped=True)

    def _trunk(self, x: Tensor, bias: Tensor | None = None) -> Tensor:
        """Output-layer values (g, B, K) for inputs (g, B, D), member i on
        block i, or for inputs (B, D) that every member reads. A ``bias``
        (g, B, K) stands in for the first layer's."""
        for layer in self.hidden + [self.out]:
            x = nd.linear(x, layer.w, layer.b if bias is None else bias,
                          leaky=layer is not self.out)
            bias = None
        return x

    def named_parameters(self, prefix: str = ""):
        out = []
        for i, layer in enumerate(self.hidden):
            out += layer.named_parameters(f"{prefix}hidden.{i}.")
        return out + self.out.named_parameters(prefix + "out.")


class MlpActor(MlpBank):
    """Per-agent deterministic policies: observation vector -> tanh action,
    one bank member per agent."""

    def __init__(self, obs_dim: int, act_dim: int, rng: np.random.Generator, *,
                 hidden_dim: int = 64, hidden_layers: int = 3, dtype=np.float32):
        self.obs_dim = obs_dim
        self.act_dim = act_dim
        self.hidden_dim = hidden_dim
        super().__init__([obs_dim] + [hidden_dim] * hidden_layers + [act_dim], rng,
                         dtype, out_bound=ACTION_HEAD_INIT)

    def forward(self, obs: Tensor) -> Tensor:
        """Actions (B, n, act_dim) for observations (B, n, obs_dim), member i on agent i."""
        return nd.swapaxes(nd.tanh(self._trunk(nd.swapaxes(obs, 0, 1))), 0, 1)

    def act(self, obs: np.ndarray) -> np.ndarray:
        """Inference on ``forward``'s numpy kernel, used in the rollout hot loop.

        Member i of the n-agent bank reads agent i's row of ``obs``
        (..., n, obs_dim), in every leading index (one per episode of a
        lockstep batch); a lone actor reads every row of ``obs``
        (..., obs_dim) in one product, in the parameters' precision. Returns
        actions of shape (..., act_dim).
        """
        x = np.asarray(obs, self.out.w.dtype)
        x = x.reshape(-1, len(self.out.w.data), obs.shape[-1]).swapaxes(0, 1)
        alloc = allocator(x, self.hidden_dim)
        for layer in self.hidden:
            x = linear_kernel(x, layer.w.data, layer.b.data, True, alloc)
        out = linear_kernel(x, self.out.w.data, self.out.b.data, False, alloc)
        np.tanh(out, out=out)
        return out.swapaxes(0, 1).reshape(obs.shape[:-1] + (self.act_dim,))


class MlpCritic(MlpBank):
    """Flat-input Q functions: concat(observations, actions) -> scalar, one
    bank member per agent."""

    def __init__(self, input_dim: int, rng: np.random.Generator, *,
                 hidden_dim: int = 64, hidden_layers: int = 3, dtype=np.float32):
        self.input_dim = input_dim
        super().__init__([input_dim] + [hidden_dim] * hidden_layers + [1], rng, dtype)

    def forward(self, x: Tensor) -> Tensor:
        """Q (g, B) for inputs (g, B, input_dim) or (B, input_dim)."""
        q = self._trunk(x)  # (g, B, 1)
        return nd.reshape(q, q.shape[:2])

    def q_rows(self, obs: Tensor, act: Tensor) -> Tensor:
        """Per-agent Q (g, B): every member reads the flat concat of every
        observation (B, n, d) and action (B, n, a)."""
        batch = obs.shape[0]
        return self.forward(nd.concat([nd.reshape(obs, (batch, -1)),
                                       nd.reshape(act, (batch, -1))], axis=-1))

    def policy_q(self, obs: Tensor, fresh: Tensor, stored: np.ndarray) -> Tensor:
        """Summed one-to-one Q (B,): member i reads agent i's ``fresh`` action
        and the other agents' ``stored`` ones, both (B, n, a). Its first layer
        is ``[obs, stored] W_i + b_i + (fresh_i - stored_i) W_i[agent i's
        action rows]``, the correction a per-row bias, so the backward reaches
        actor i through those a rows only."""
        batch, n, a = stored.shape
        first = (self.hidden + [self.out])[0]
        rows = first.w.shape[1] - n * a + a * np.arange(n)[:, None] + np.arange(a)
        own = nd.getitem(first.w, (np.arange(n)[:, None], rows))  # (n, a, K)
        bias = nd.linear(nd.swapaxes(fresh - stored, 0, 1), own, first.b)
        flat = np.concatenate([obs.data.reshape(batch, -1), stored.reshape(batch, -1)], axis=1)
        q = self._trunk(Tensor(flat, dtype=flat.dtype), bias)  # (n, B, 1)
        return nd.tsum(nd.reshape(q, q.shape[:2]), axis=0)


def stack(members: list):
    """One bank holding ``members``, banks of one class and shape, in order
    along the group axis."""
    bank = clone(members[0])
    for param, *column in zip(parameters(bank), *map(parameters, members)):
        param.data = np.concatenate([p.data for p in column])
    return bank


class SelfAttentionBlock:
    """Multi-head self-attention over the agent axis.

    Scores are the raw bilinear products of queries and keys (no scaling
    term), heads are concatenated and mixed by an output projection, then a
    residual connection and layer normalization are applied. There is no
    positional encoding: the block commutes with any permutation of the agent
    axis.
    """

    def __init__(self, dim: int, rng: np.random.Generator, *, heads: int = 4,
                 dtype=np.float32):
        if dim % heads:
            raise ValueError(f"dim {dim} not divisible by heads {heads}")
        self.heads = heads  # of width dim / heads, so every projection is (dim, dim)
        self.wq = _uniform_init(rng, (dim, dim), dim, dtype)
        self.wk = _uniform_init(rng, (dim, dim), dim, dtype)
        self.wv = _uniform_init(rng, (dim, dim), dim, dtype)
        self.wout = _uniform_init(rng, (dim, dim), dim, dtype)
        self.ln_gain = Tensor(np.ones(dim), requires_grad=True, dtype=dtype)
        self.ln_bias = Tensor(np.zeros(dim), requires_grad=True, dtype=dtype)

    def forward(self, x: Tensor) -> Tensor:
        return nd.attention_block(x, self.wq, self.wk, self.wv, self.wout,
                                  self.ln_gain, self.ln_bias, heads=self.heads)

    def named_parameters(self, prefix: str = ""):
        pairs = [("wq", self.wq), ("wk", self.wk), ("wv", self.wv),
                 ("wout", self.wout), ("ln_gain", self.ln_gain),
                 ("ln_bias", self.ln_bias)]
        return [(prefix + name, t) for name, t in pairs]


class AttentionNet:
    """The attention family's trunk: a position-wise embedding, a stack of
    self-attention blocks and a two-layer position-wise head, one weight set
    shared across every agent slot, drawn in that order. ``HEAD`` names the
    head's two layers in checkpoints; subclasses pass their keyword sizes
    (``hidden_dim``, ``heads``, ``blocks``, ``dtype``) through."""

    HEAD = ("head_hidden", "head_out")

    def __init__(self, obs_dim: int, act_dim: int, in_dim: int, out_dim: int,
                 rng: np.random.Generator, *, hidden_dim: int = 64, heads: int = 4,
                 blocks: int = 2, dtype=np.float32, out_bound: float | None = None):
        self.obs_dim = obs_dim
        self.act_dim = act_dim
        self.embed = Linear(in_dim, hidden_dim, rng, dtype)
        self.blocks = [SelfAttentionBlock(hidden_dim, rng, heads=heads, dtype=dtype)
                       for _ in range(blocks)]
        self.head_hidden = Linear(hidden_dim, hidden_dim, rng, dtype)
        self.head_out = Linear(hidden_dim, out_dim, rng, dtype, init_bound=out_bound)

    def _trunk(self, x: Tensor) -> Tensor:
        """Head outputs (B, n, out_dim) for inputs (B, n, in_dim)."""
        x = self.embed(x, leaky=True)
        for block in self.blocks:
            x = block.forward(x)
        return self.head_out(self.head_hidden(x, leaky=True))

    def named_parameters(self, prefix: str = ""):
        out = self.embed.named_parameters(prefix + "embed.")
        for i, block in enumerate(self.blocks):
            out += block.named_parameters(f"{prefix}blocks.{i}.")
        for name, layer in zip(self.HEAD, (self.head_hidden, self.head_out)):
            out += layer.named_parameters(f"{prefix}{name}.")
        return out


class CriticNet(AttentionNet):
    """Shared attention critic: per-agent (obs, action) -> per-agent Q.

    One embedding, one attention stack, and one position-wise Q head are
    shared across every agent slot, so the per-agent outputs are exactly
    equivariant under agent permutations.
    """

    HEAD = ("q_hidden", "q_out")

    def __init__(self, obs_dim: int, act_dim: int, rng: np.random.Generator, **sizes):
        super().__init__(obs_dim, act_dim, obs_dim + act_dim, 1, rng, **sizes)

    def forward(self, obs: Tensor, act: Tensor) -> Tensor:
        if obs.shape[:2] != act.shape[:2]:
            raise nd.ShapeError(
                f"observation/action agent layouts disagree: {obs.shape} vs {act.shape}")
        q = self._trunk(nd.concat([obs, act], axis=-1))  # (B, n, 1)
        return nd.reshape(q, q.shape[:2])

    def q_rows(self, obs: Tensor, act: Tensor) -> Tensor:
        """Total Q (1, B), the one row that the shared critic regresses."""
        return nd.reshape(total_q(self.forward(obs, act)), (1, obs.shape[0]))

    def policy_q(self, obs: Tensor, fresh: Tensor, stored: np.ndarray) -> Tensor:
        """Total Q (B,) with every agent's ``fresh`` action (one-to-all);
        ``stored`` is not read."""
        return total_q(self.forward(obs, fresh))


class AttentionActor(AttentionNet):
    """Centralized policy: all observations in, all actions out.

    A single weight set embeds each agent's observation, runs the attention
    stack, and decodes a tanh action per slot; like the critic, the network
    is permutation equivariant over agents.
    """

    def __init__(self, obs_dim: int, act_dim: int, rng: np.random.Generator, **sizes):
        super().__init__(obs_dim, act_dim, obs_dim, act_dim, rng,
                         out_bound=ACTION_HEAD_INIT, **sizes)

    def forward(self, obs: Tensor) -> Tensor:
        """Actions (B, n, act_dim) for observations (B, n, obs_dim)."""
        return nd.tanh(self._trunk(obs))

    def act(self, obs: np.ndarray) -> np.ndarray:
        """Joint actions (..., n, act_dim) for observations (..., n, obs_dim):
        one world state, or one per episode of a lockstep batch."""
        x = np.asarray(obs, self.embed.w.dtype).reshape((-1,) + obs.shape[-2:])
        alloc = allocator(x, self.embed.w.shape[-1])
        x = linear_kernel(x, self.embed.w.data, self.embed.b.data, True, alloc)
        for b in self.blocks:
            x = attention_kernel(x, b.wq.data, b.wk.data, b.wv.data, b.wout.data,
                                 b.ln_gain.data, b.ln_bias.data, heads=b.heads, alloc=alloc)[0]
        x = linear_kernel(x, self.head_hidden.w.data, self.head_hidden.b.data, True, alloc)
        out = linear_kernel(x, self.head_out.w.data, self.head_out.b.data, False, alloc)
        np.tanh(out, out=out)
        return out.reshape(obs.shape[:-1] + (self.act_dim,))


def total_q(q: Tensor) -> Tensor:
    """Sum per-agent Q values of one type into the decomposed total."""
    if q.shape[-1] < 1:
        raise nd.ShapeError("total_q needs at least one agent")
    return nd.tsum(q, axis=-1)


def parameters(net) -> list[Tensor]:
    return [t for _, t in net.named_parameters()]


def clone(net):
    """Deep copy used to spawn target networks."""
    return copy.deepcopy(net)


def copy_params(dst, src) -> None:
    for (name_d, d), (name_s, s) in zip(dst.named_parameters(), src.named_parameters()):
        if name_d != name_s or d.data.shape != s.data.shape:
            raise nd.ShapeError(
                f"parameter mismatch: {name_d}{d.data.shape} vs {name_s}{s.data.shape}")
        d.data[...] = s.data
