"""Approximating a tractable linear-Gaussian latent tree with a quadrature circuit.

The model is tractable in closed form, so the materialized circuit's
log-likelihoods can be scored against the truth exactly.  The mean squared
error keeps dropping with the number of integration points: the integration
domains widen with N by k(N) = max(3, -ndtri(N^-1.5 / 2)) conditional
stddevs, so the mass they cut off shrinks along with the quadrature error.
"""

import numpy as np

from picirc.gaussian import (
    domain_rules,
    exact_loglik,
    qpc_loglik,
    random_model,
    sample,
    to_pic,
)
from picirc.materialize import materialize_qpc
from picirc.runtime import log_forward

model = random_model(16, seed=42)
print(f"model: {model.num_latents} latents, {model.num_observables} observables")
print("latent skeleton:", model.latent_parent)

samples = sample(model, 1000, seed=7)
truth = exact_loglik(model, samples)
print(f"exact mean log-likelihood: {truth.mean():.4f}")

print("\nintegration domains at N = 64 (child domains cover the images of")
print("their parent's points, widened by k(64) = 3.10 conditional stddevs):")
for i, rule in domain_rules(model, 64).items():
    lo, hi = rule.domain
    print(f"  z{i}: [{lo:8.3f}, {hi:8.3f}]")

print("\nquadrature error vs number of integration points")
for n in (16, 32, 64, 128, 256, 512):
    approx = qpc_loglik(model, domain_rules(model, n), samples)
    mse = np.mean((approx - truth) ** 2)
    print(f"  N = {n:3d}  mse {mse:.3e}  worst |err| {np.max(np.abs(approx - truth)):.3e}")

# The fused tensor path above equals evaluating the explicit circuit.
rules = domain_rules(model, 32)
qpc = materialize_qpc(to_pic(model), rules)
fused = qpc_loglik(model, rules, samples[:50])
explicit = log_forward(qpc, samples[:50])
print(f"\nexplicit circuit: {len(qpc.units)} units, {qpc.num_edges} edges")
print(f"fused vs explicit max diff: {np.max(np.abs(fused - explicit)):.2e}")
