"""Watch the adaptation loop work on a rotated two-blob problem.

The source domain is two labeled Gaussian blobs; the target domain is
the same blobs rotated 45 degrees, with labels hidden. Training aligns
the feature distributions, grows a pseudo-labeled core, and the batch
graphs get cleaner as it goes.

Run:  python3 demos/quickstart.py
"""

import numpy as np

from graphda import ShiftConfig, TrainConfig, gen_synthetic_shift, normalize, train

shift = ShiftConfig(per_class=200, noise_sigma=1.0)
source, target, truth = gen_synthetic_shift(shift, np.random.default_rng(7))

# small net, short run; the confidence gate sits at 0.9 so the
# pseudo-label pool visibly grows
config = TrainConfig(
    epochs=40,
    batch_size=64,
    threshold_percentile=20.0,
    warmup_epochs=2,
    epsilon=0.9,
    hidden=32,
    phi_dim=32,
    backbone_hidden=32,
    seed=0,
)

print(f"source {len(source)} labeled, target {len(target)} unlabeled, 45 degree shift")
model, history = train(config, source, target, eval_labels=truth)

print(f"\n{'epoch':>5} {'precision':>9} {'accuracy':>8} {'coverage':>8} {'edge ok':>8}")
for h in history:
    if h.epoch % 5 and h.epoch != config.epochs:
        continue
    labeled = h.edges_right + h.edges_wrong
    ratio = h.edges_right / labeled if labeled else float("nan")
    print(f"{h.epoch:>5} {h.precision:>9.3f} {h.accuracy:>8.3f} "
          f"{h.pseudo_coverage:>8.2f} {ratio:>8.3f}")

target_n, _ = normalize(target)  # same per-domain transform train() applies
pred = np.argmax(model.infer(target_n.features)[1], axis=1)
print(f"\nfinal target accuracy: {(pred == truth).mean():.3f}")
