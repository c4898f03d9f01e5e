"""Switch the method's components off one at a time and compare.

Four arms share the data and every remaining hyperparameter:

  full         graph layer + pseudo-labels + all three losses
  no-graph     classifier reads backbone features directly
  no-pseudo    target stays unlabeled; alignment and separation still on
  source-only  cross-entropy on source labels, nothing else

Target precision is what the arms are judged on. On this small rotated
two-blob problem the gaps are modest and seed-dependent; the point is
seeing which dynamics each component contributes (pseudo-label coverage,
edge quality), not a leaderboard.

Run:  python3 demos/ablation.py
"""

import numpy as np

from graphda import ShiftConfig, TrainConfig, gen_synthetic_shift, train

common = dict(
    epochs=50,
    batch_size=128,
    threshold_percentile=20.0,
    warmup_epochs=2,
    epsilon=0.95,
)

ARMS = (
    ("full", {}),
    ("no-graph", dict(use_gnn=False)),
    ("no-pseudo", dict(use_pseudo=False)),
    ("source-only", dict(use_gnn=False, use_pseudo=False,
                         loss_weights=(0.0, 0.0, 1.0))),
)

source, target, truth = gen_synthetic_shift(
    ShiftConfig(noise_sigma=1.2), np.random.default_rng(1000)
)
print(f"{len(source)} source / {len(target)} target samples, 45 degree shift\n")
print(f"{'arm':<12} {'precision':>9} {'accuracy':>8} {'coverage':>8} {'edge ok':>8}")

for name, overrides in ARMS:
    hist = train(TrainConfig(seed=0, **common, **overrides),
                 source, target, eval_labels=truth)[1]
    last = hist[-1]
    labeled = last.edges_right + last.edges_wrong
    ratio = f"{last.edges_right / labeled:8.3f}" if labeled else "       -"
    print(f"{name:<12} {last.precision:>9.3f} {last.accuracy:>8.3f} "
          f"{last.pseudo_coverage:>8.2f} {ratio}")
