"""Self-attention multi-agent actor-critic training framework.

Subpackages:
  ndmath   -- tensor substrate with reverse-mode gradients, Adam, clipping
  nets     -- actor / critic architectures (MLP banks and self-attention)
  envs     -- 2-D particle world: cooperative navigation, predator-prey
  algo     -- replay buffer, trainers (MADDPG / MATD3 / SA / DSA variants)
  harness  -- experiment runner: train, evaluate, plot, compare
"""

__version__ = "0.1.0"
