"""Numpy calls per rollout step, split by the code that makes them.

    PYTHONPATH=src python3 tools/count_ops.py [--episodes 10]

Runs exploring episodes, ``Trainer.run_episode(explore=True)``, of
coop_nav(5) under sa-matd3 and predator_prey(9) under dsa-matd3 at the
default network sizes, seed 0, and prints the mean numpy calls per step made
inside ``ParticleWorld.step``, inside ``scripted_prey``, inside the actor's
``act``, and in the rest of ``run_episode`` ("loop": its own lines, the
reset, the noise draw and the replay push, spread over the episode's steps).

A numpy call is one top-level call into numpy: a ufunc, operators and ufunc
methods such as ``np.add.reduce`` included; a function that dispatches on
its array arguments (``np.concatenate``, ``np.argmin``); an ndarray method,
index get or set, or ``.T``; an array made by ``np.zeros``, ``np.empty``,
``np.array`` or ``np.asarray``; a draw from the world's or the exploration
RNG. Calls that numpy makes inside such a call are not counted. The counter
is an ndarray subclass: the world's state arrays, the replay buffer's arrays
and every array or scalar numpy makes while counting are viewed as it, and
every count unwraps its operands, so the episodes compute what they compute
without it, bit for bit.
"""

from __future__ import annotations

import argparse
import contextlib
import functools

import numpy as np

from samarl import algo
from samarl.algo import AlgoKind, TrainConfig, Trainer
from samarl.envs import ScenarioConfig
from samarl.ndmath import tensor

PARTS = ("step", "prey", "actor", "loop")
CASES = {
    "coop_nav(5) sa-matd3": (ScenarioConfig.coop_nav(5), "sa-matd3"),
    "predator_prey(9) dsa-matd3": (ScenarioConfig.predator_prey(9), "dsa-matd3"),
}

_counts = dict.fromkeys(PARTS, 0)
_part = ["loop"]     # the innermost part running
_depth = [0]         # numpy calls in progress


@contextlib.contextmanager
def _call():
    """One numpy call, counted unless another one is in progress."""
    if not _depth[0]:
        _counts[_part[-1]] += 1
    _depth[0] += 1
    try:
        yield
    finally:
        _depth[0] -= 1


def _counted(x):
    if isinstance(x, tuple):
        return tuple(map(_counted, x))
    if isinstance(x, np.generic):   # a reduction's scalar: a 0-d array of it
        return np.asarray(x).view(Counted)
    return x.view(Counted) if type(x) is np.ndarray else x


def _plain(x):
    if isinstance(x, tuple):
        return tuple(map(_plain, x))
    return x.view(np.ndarray) if isinstance(x, Counted) else x


class Counted(np.ndarray):
    """An ndarray whose numpy calls are counted (see the module docstring)."""

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        kwargs = {k: _plain(v) for k, v in kwargs.items()}
        with _call():
            return _counted(getattr(ufunc, method)(*map(_plain, inputs), **kwargs))

    def __array_function__(self, func, types, args, kwargs):
        with _call():
            return _counted(super().__array_function__(func, types, args, kwargs))

    @property
    def T(self):
        with _call():
            return _counted(np.ndarray.T.__get__(self))


def _counting(f):
    @functools.wraps(f)
    def call(*args, **kwargs):
        with _call():
            return _counted(f(*args, **kwargs))
    return call


for _name in ("__getitem__", "__setitem__", "reshape", "swapaxes", "transpose", "copy",
              "astype", "sum", "max", "min", "argmin", "any", "all", "fill", "ravel",
              "item", "tolist", "tobytes"):
    setattr(Counted, _name, _counting(getattr(np.ndarray, _name)))


class _CountedRng:
    """A generator whose draws are counted; the stream is the generator's."""

    def __init__(self, rng: np.random.Generator):
        self._rng = rng

    def __getattr__(self, name):
        return _counting(getattr(self._rng, name))


def _in_part(part: str, f):
    @functools.wraps(f)
    def call(*args, **kwargs):
        _part.append(part)
        try:
            return f(*args, **kwargs)
        finally:
            _part.pop()
    return call


@contextlib.contextmanager
def counting(trainer: Trainer):
    """Count the numpy calls of ``trainer``'s rollouts inside the block. The
    trainer keeps its counted arrays and generators afterwards."""
    env, buffer = trainer.env, trainer.buffer
    # views share the arrays' memory, so the world's state stays one
    for owner, names in ((env, ("pos", "vel", "_state")), (buffer, ("obs", "act", "rew"))):
        for name in names:
            if name in vars(owner):
                setattr(owner, name, getattr(owner, name).view(Counted))
    env.rng, trainer.explore_rng = _CountedRng(env.rng), _CountedRng(trainer.explore_rng)
    patches = [(np, name, _counting(getattr(np, name)))
               for name in ("zeros", "empty", "array", "asarray")]
    patches += [(tensor, "FRESH", tensor.FRESH[:2] + (_counting(np.empty),)),
                (algo, "scripted_prey", _in_part("prey", algo.scripted_prey)),
                (env, "step", _in_part("step", env.step)),
                (trainer.actor, "act", _in_part("actor", trainer.actor.act))]
    saved = [(owner, name, owner.__dict__.get(name)) for owner, name, _ in patches]
    for owner, name, value in patches:
        setattr(owner, name, value)
    try:
        yield
    finally:
        for owner, name, value in saved:
            if value is None:
                delattr(owner, name)
            else:
                setattr(owner, name, value)


def count_calls(trainer: Trainer, episodes: int) -> dict[str, float]:
    """Mean numpy calls per step of ``episodes`` exploring episodes of
    ``trainer``, per part and in total."""
    for part in PARTS:
        _counts[part] = 0
    with counting(trainer):
        for _ in range(episodes):
            trainer.run_episode(explore=True)
    steps = episodes * trainer.scenario.episode_length
    out = {part: _counts[part] / steps for part in PARTS}
    out["total"] = sum(out.values())
    return out


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--episodes", type=int, default=10)
    args = parser.parse_args(argv)
    print(f"numpy calls per step, mean of {args.episodes} exploring episodes")
    print(f"{'':28}" + "".join(f"{part:>8}" for part in PARTS + ("total",)))
    for label, (scenario, kind) in CASES.items():
        trainer = Trainer(scenario, AlgoKind.parse(kind), TrainConfig(replay_capacity=4000))
        calls = count_calls(trainer, args.episodes)
        print(f"{label:28}" + "".join(f"{calls[part]:8.1f}" for part in PARTS + ("total",)))


if __name__ == "__main__":
    main()
