"""Span tracer that times samarl's public functions from outside the package.

Every traced function is replaced, at each place a caller looks it up, by one
wrapper that records a span: name, start, end and the span that was open when
it was called (its parent). ``nd.matmul`` is found through the
``samarl.ndmath`` package while ``Tensor.__matmul__`` finds
``samarl.ndmath.tensor.matmul``, and ``samarl.algo`` holds its own names for
``backward``, ``clip_grad_norm``, ``scripted_prey`` and ``save_checkpoint``;
all places that hold the same function get the same wrapper, so a call is
counted once whichever way it arrives. Spans stay in flat in-memory arrays
until the benchmark ends.

Self time is a span's duration minus the time its direct children cover.
"""

from __future__ import annotations

import contextlib
import time
from array import array
from collections import defaultdict
from pathlib import Path

import numpy as np

# The spans the benchmark reports, by the name it gives them. ndmath ops are
# listed separately because their spans are split by context (see OP_CONTEXTS).
FUNCTION_SPANS = [
    "envs.step", "envs.reset", "envs.scripted_prey",
    "nets.MlpActor.act", "nets.AttentionActor.act",
    "nets.CriticNet.forward", "nets.MlpCritic.forward",
    "nets.MlpActor.forward", "nets.AttentionActor.forward",
    "ndmath.backward", "ndmath.Adam.step", "ndmath.clip_grad_norm",
    "algo.ReplayBuffer.push", "algo.ReplayBuffer.sample",
    "algo.Trainer.run_episode", "algo.Trainer.compute_target_y",
    "algo.Trainer.critic_update", "algo.Trainer.policy_update",
    "algo.soft_update",
    "harness.evaluate_trainer", "harness.train",
    "checkpoint.save_checkpoint",
]
NDMATH_OPS = ["matmul", "softmax", "layer_norm", "swapaxes", "reshape", "concat",
              "leaky_relu", "tanh", "add", "mul", "tsum"]
# An op runs either inside a policy's inference call (batch 1 or one agent's
# row, under no_grad) or anywhere else, which in these workloads means a
# batch-512 update or target computation. The two are reported apart.
ACT_SPANS = ("nets.MlpActor.act", "nets.AttentionActor.act")
OP_CONTEXTS = ("upd", "act")
LAYERS = ["envs", "nets", "ndmath", "algo", "harness", "checkpoint", "bench"]
COUNTERS = ["envs.clip_events", "algo.critic_updates", "algo.policy_updates",
            "checkpoint.save_checkpoint.bytes"]


def per_layer_metrics() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric a traced run reports."""
    out = []
    for span in FUNCTION_SPANS:
        out += [(f"{span}.calls", "count"), (f"{span}.total_pct", "%"),
                (f"{span}.self_pct", "%")]
    for op in NDMATH_OPS:
        for ctx in OP_CONTEXTS:
            out += [(f"ndmath.{op}.{ctx}.calls", "count"),
                    (f"ndmath.{op}.{ctx}.self_pct", "%")]
    out.append(("ndmath.backward.unrequested_grad_share", "%"))
    out += [(name, "count") for name in COUNTERS]
    out += [(f"layer.{layer}.self_pct", "%") for layer in LAYERS]
    out += [("trace.round_ms", "ms"), ("trace.overhead_pct", "%")]
    return out


def _targets(samarl) -> list[tuple[str, list[tuple[object, str]]]]:
    """Span name -> every (owner, attribute) through which callers reach it."""
    algo, envs, harness, nets = samarl.algo, samarl.envs, samarl.harness, samarl.nets
    ndmath, checkpoint = samarl.ndmath, samarl.checkpoint
    tensor, optim = ndmath.tensor, ndmath.optim
    out = [
        ("envs.step", [(envs.ParticleWorld, "step")]),
        ("envs.reset", [(envs.ParticleWorld, "reset")]),
        ("envs.scripted_prey", [(envs, "scripted_prey"), (algo, "scripted_prey")]),
        ("nets.MlpActor.act", [(nets.MlpActor, "act")]),
        ("nets.AttentionActor.act", [(nets.AttentionActor, "act")]),
        ("nets.CriticNet.forward", [(nets.CriticNet, "forward")]),
        ("nets.MlpCritic.forward", [(nets.MlpCritic, "forward")]),
        ("nets.MlpActor.forward", [(nets.MlpActor, "forward")]),
        ("nets.AttentionActor.forward", [(nets.AttentionActor, "forward")]),
        ("ndmath.backward", [(tensor, "backward"), (ndmath, "backward"),
                             (algo, "backward")]),
        ("ndmath.Adam.step", [(optim.Adam, "step")]),
        ("ndmath.clip_grad_norm", [(optim, "clip_grad_norm"),
                                   (ndmath, "clip_grad_norm"),
                                   (algo, "clip_grad_norm")]),
        ("algo.ReplayBuffer.push", [(algo.ReplayBuffer, "push")]),
        ("algo.ReplayBuffer.sample", [(algo.ReplayBuffer, "sample")]),
        ("algo.Trainer.run_episode", [(algo.Trainer, "run_episode")]),
        ("algo.Trainer.compute_target_y", [(algo.Trainer, "compute_target_y")]),
        ("algo.Trainer.critic_update", [(algo.Trainer, "critic_update")]),
        ("algo.Trainer.policy_update", [(algo.Trainer, "policy_update")]),
        ("algo.soft_update", [(algo, "soft_update")]),
        ("harness.evaluate_trainer", [(harness, "evaluate_trainer")]),
        ("harness.train", [(harness, "train")]),
        ("checkpoint.save_checkpoint", [(checkpoint, "save_checkpoint"),
                                        (algo, "save_checkpoint"),
                                        (harness, "save_checkpoint")]),
    ]
    out += [(f"ndmath.{op}", [(tensor, op), (ndmath, op)]) for op in NDMATH_OPS]
    return out


def _dir_bytes(path) -> int:
    return sum(f.stat().st_size for f in Path(path).iterdir() if f.is_file())


class Tracer:
    """Records spans while installed; computes per-span and per-layer totals."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counters: dict[str, float] = defaultdict(float)
        self.missing: list[str] = []
        self._patches: list[tuple[object, str, object]] = []
        self._trainers: list[tuple] = []
        self._worlds: list[tuple[object, int]] = []
        self._grad_filled = 0
        self._grad_unrequested = 0

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    # -- recording ----------------------------------------------------------------

    def wrap(self, name: str, fn):
        nid = self._id(name)
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(sid)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()

        return traced

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself (its rounds and operations)."""
        nid = self._id(name)
        sid = len(self.name_id)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(time.perf_counter())
        try:
            yield
        finally:
            self.end[sid] = time.perf_counter()
            self._stack.pop()

    # -- installation -------------------------------------------------------------

    def watch_trainer(self, trainer) -> None:
        """Count this trainer's updates and gradients from now on."""
        self._trainers.append((trainer, [p for _, p in trainer.named_parameters()],
                               trainer.critic_updates, trainer.policy_updates))
        self.watch_world(trainer.env)

    def watch_world(self, world) -> None:
        if all(w is not world for w, _ in self._worlds):
            self._worlds.append((world, world.clip_events))

    def install(self, samarl) -> None:
        """Wrap every target; a target a later version renamed is skipped and noted."""
        for name, places in _targets(samarl):
            wrappers: dict[int, object] = {}
            for owner, attr in places:
                fn = getattr(owner, attr, None)
                if fn is None:
                    self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
                    continue
                if id(fn) not in wrappers:
                    wrappers[id(fn)] = self._special(name, fn)
                self._patch(owner, attr, wrappers[id(fn)])
        self._patch_init(samarl.algo.Trainer, self.watch_trainer)
        self._patch_init(samarl.envs.ParticleWorld, self.watch_world)

    def _special(self, name: str, fn):
        traced = self.wrap(name, fn)
        if name == "ndmath.backward":
            return self._count_grads(traced)
        if name == "checkpoint.save_checkpoint":
            def saved(*args, **kwargs):
                directory = traced(*args, **kwargs)
                self.counters["checkpoint.save_checkpoint.bytes"] += _dir_bytes(directory)
                return directory
            return saved
        return traced

    def _count_grads(self, traced):
        """Count gradient elements backward fills on trainer parameters that
        the caller did not ask for (absent from ``params``). The counting runs
        outside the backward span, in its caller's self time."""
        def backward(loss, params=None):
            params = list(params) if params is not None else []
            watched = [p for _, ps, _, _ in self._trainers for p in ps]
            before = [p.grad for p in watched]
            traced(loss, params=params)
            requested = {id(p) for p in params}
            for p, old in zip(watched, before):
                if p.grad is not None and p.grad is not old:
                    self._grad_filled += p.grad.size
                    if id(p) not in requested:
                        self._grad_unrequested += p.grad.size
        return backward

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, vars(owner).get(attr)))
        setattr(owner, attr, value)

    def _patch_init(self, cls, register) -> None:
        original = cls.__init__

        def __init__(obj, *args, **kwargs):
            original(obj, *args, **kwargs)
            register(obj)

        self._patch(cls, "__init__", __init__)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patches):
            if value is None:
                delattr(owner, attr)  # the attribute was inherited
            else:
                setattr(owner, attr, value)
        self._patches.clear()

    def snapshot_counters(self) -> None:
        """Read the program's own counters, as moved while the tracer watched."""
        self.counters["algo.critic_updates"] = sum(
            t.critic_updates - c0 for t, _, c0, _ in self._trainers)
        self.counters["algo.policy_updates"] = sum(
            t.policy_updates - p0 for t, _, _, p0 in self._trainers)
        self.counters["envs.clip_events"] = sum(
            w.clip_events - base for w, base in self._worlds)

    # -- analysis -----------------------------------------------------------------

    def arrays(self):
        ids = np.frombuffer(self.name_id, dtype=np.int32).astype(np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int32).astype(np.int64)
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        return ids, parent, start, end

    def _ancestry(self, parent: np.ndarray, flagged: np.ndarray) -> np.ndarray:
        """True where some strict ancestor of a span is flagged."""
        below = np.zeros(parent.size, dtype=bool)
        cur = parent.copy()
        while True:
            live = cur >= 0
            if not live.any():
                return below
            safe = np.where(live, cur, 0)
            below |= live & flagged[safe]
            cur = np.where(live, parent[safe], -1)

    def _roots(self, parent: np.ndarray) -> np.ndarray:
        idx = np.arange(parent.size)
        root = np.where(parent >= 0, parent, idx)
        while True:
            nxt = root[root]
            if np.array_equal(nxt, root):
                return root
            root = nxt

    def table(self) -> dict:
        """Per-name and per-layer durations in seconds, plus call counts."""
        ids, parent, start, end = self.arrays()
        n_names = len(self.names)
        dur = end - start
        live = parent >= 0
        child = np.bincount(parent[live], weights=dur[live], minlength=ids.size)
        self_t = dur - child

        is_act_name = np.array([name in ACT_SPANS for name in self.names] or [False])
        in_act = self._ancestry(parent, is_act_name[ids])

        def by_name(mask=None, weights=None):
            sel = ids if mask is None else ids[mask]
            w = None if weights is None else (weights if mask is None else weights[mask])
            return np.bincount(sel, weights=w, minlength=n_names)

        calls, total, selfs = by_name(), by_name(weights=dur), by_name(weights=self_t)
        spans = {name: {"calls": int(calls[i]), "total_s": float(total[i]),
                        "self_s": float(selfs[i])} for i, name in enumerate(self.names)}
        for ctx, mask in (("act", in_act), ("upd", ~in_act)):
            c, s = by_name(mask), by_name(mask, self_t)
            for op in NDMATH_OPS:
                i = self._ids.get(f"ndmath.{op}")
                spans[f"ndmath.{op}.{ctx}"] = {
                    "calls": 0 if i is None else int(c[i]),
                    "self_s": 0.0 if i is None else float(s[i])}

        layer_of = np.array([LAYERS.index(name.split(".")[0]) for name in self.names]
                            or [0])
        layers = np.bincount(layer_of[ids], weights=self_t, minlength=len(LAYERS))

        # self time per layer under each kind of top-level benchmark operation
        roots = self._roots(parent)
        by_root: dict[str, dict] = {}
        for rid in np.unique(ids[roots]) if ids.size else []:
            rname = self.names[rid]
            mask = ids[roots] == rid
            top = mask & ~live
            per_layer = np.bincount(layer_of[ids[mask]], weights=self_t[mask],
                                    minlength=len(LAYERS))
            by_root[rname] = {
                "count": int(top.sum()),
                "p50_s": float(np.median(dur[top])),
                "layers_s": dict(zip(LAYERS, map(float, per_layer))),
            }
        return {"spans": spans, "layers_s": dict(zip(LAYERS, map(float, layers))),
                "by_root": by_root, "n_spans": int(ids.size)}

    def grad_share(self) -> float:
        return 100.0 * self._grad_unrequested / self._grad_filled if self._grad_filled else 0.0

    def save(self, path) -> None:
        ids, parent, start, end = self.arrays()
        np.savez(path, names=np.array(self.names), name_id=ids, parent=parent,
                 start=start, end=end)

    def metrics(self, traced_rounds_s: list[float], untraced_rounds_s: list[float],
                drift: float = 1.0) -> dict:
        """Per-layer metrics per traced round; shares are of traced wall time.

        ``drift`` is how much slower the machine ran during the traced rounds
        than during the untraced ones; the overhead is corrected for it."""
        table = self.table()
        rounds, wall = len(traced_rounds_s), sum(traced_rounds_s)
        spans = table["spans"]
        empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        out = {}
        for name in FUNCTION_SPANS:
            row = spans.get(name, empty)
            out[f"{name}.calls"] = row["calls"] / rounds
            out[f"{name}.total_pct"] = 100.0 * row["total_s"] / wall
            out[f"{name}.self_pct"] = 100.0 * row["self_s"] / wall
        for op in NDMATH_OPS:
            for ctx in OP_CONTEXTS:
                row = spans[f"ndmath.{op}.{ctx}"]
                out[f"ndmath.{op}.{ctx}.calls"] = row["calls"] / rounds
                out[f"ndmath.{op}.{ctx}.self_pct"] = 100.0 * row["self_s"] / wall
        out["ndmath.backward.unrequested_grad_share"] = self.grad_share()
        for name in COUNTERS:
            out[name] = self.counters.get(name, 0.0) / rounds
        for layer in LAYERS:
            out[f"layer.{layer}.self_pct"] = 100.0 * table["layers_s"][layer] / wall
        traced = float(np.median(traced_rounds_s))
        out["trace.round_ms"] = 1e3 * traced
        untraced = float(np.median(untraced_rounds_s)) * drift
        out["trace.overhead_pct"] = 100.0 * (traced / untraced - 1.0)
        return {"metrics": out, "table": table, "rounds": rounds, "wall_s": wall}
