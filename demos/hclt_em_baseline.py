"""Expectation-maximization on a hidden Chow-Liu tree.

The same synthetic data as the gradient-trained demo, but the latents are
categorical with free sum weights and the updates are EM instead of
gradient steps.  The expected counts come from one backward pass through
the latent-tree engine; ``em_step`` computes the same update on the
explicit circuit.  Full-batch EM with step size 1 is monotone in training
log-likelihood; mini-batch EM anneals the step size.  An Adam-trained
version of the same tensor parameterization is run for comparison.
"""

import numpy as np

from picirc.runtime import bpd
from picirc.structures import chow_liu_tree, hclt_structure
from picirc.training import HcltTensors, TrainConfig, hclt_em_step, train_hclt_adam, train_hclt_em

rng = np.random.default_rng(5)


def draw(rows):
    h = rng.integers(0, 3, rows)
    x = np.empty((rows, 8))
    for j in range(8):
        probs = np.full((rows, 4), 0.1)
        probs[np.arange(rows), (h + j) % 4] = 0.7
        x[:, j] = (rng.random(rows)[:, None] > probs.cumsum(axis=1)).sum(axis=1)
    return x


train_x, valid_x = draw(2000), draw(500)
tree = hclt_structure(chow_liu_tree(train_x), "categorical", num_states=4)

# Asymmetric initialization matters: near-uniform weights are a fixed point
# of the symmetry between latent states and EM barely moves.
tensors = HcltTensors.random(tree, n=16, family="categorical", num_states=4, seed=0, scale=1.0)
pc = tensors.to_circuit()
print(f"circuit: {len(pc.units)} units, {pc.num_edges} edges")

print("\nfull-batch EM (step size 1), training bpd per iteration:")
trace = [hclt_em_step(tensors, train_x, 1.0) for _ in range(8)]
print(" ".join(f"{bpd(-v, 8):.4f}" for v in trace))

config = TrainConfig(batch_size=64, n=16, max_steps=600, eval_interval=150, patience=600,
                     lr_max=0.5, lr_min=0.05, seed=0)
em_result = train_hclt_em(
    HcltTensors.random(tree, n=16, family="categorical", num_states=4, seed=0, scale=1.0),
    train_x, valid_x, config)
print("\nmini-batch EM validation bpd:",
      " ".join(f"{row['valid_bpd']:.4f}" for row in em_result.history))

adam_tensors = HcltTensors.random(tree, n=16, family="categorical", num_states=4, seed=0)
adam_config = TrainConfig(batch_size=64, n=16, max_steps=600, eval_interval=150, patience=600, seed=0)
adam_result = train_hclt_adam(adam_tensors, train_x, valid_x, adam_config)
print("gradient-trained validation bpd:",
      " ".join(f"{row['valid_bpd']:.4f}" for row in adam_result.history))

print(f"\nfinal: EM {min(r['valid_bpd'] for r in em_result.history):.4f} vs "
      f"Adam {min(r['valid_bpd'] for r in adam_result.history):.4f}")
