"""Sampling a Gaussian Markov random field two ways.

The conditional autoregression on a graph pins each node's conditional mean
to its neighbours, edge s-t weighted eta * sqrt(tau2_s / tau2_t) with the
conditional variances tau2 from tau_from_eta.  Those weights make the
conditionals compatible on every graph, and every marginal variance of the
joint law equals one.  The conclique-blocked Gibbs chain and the exact joint
sampler must agree in distribution, which is the main simulation oracle.
"""

import numpy as np

import wavesieve as ws

graph = ws.torus_lattice(6, 6)
spec = ws.GmrfSpec(graph, eta=0.2)
print("spec: eta = 0.2, tau2 =", round(float(spec.tau2[0]), 6), "(constant on the torus)")

cov, resid = ws.joint_covariance(spec)
print("implied covariance: marginal variances",
      np.round(np.diag(cov)[:4], 12), "... asymmetry residual", resid)

# the paper's chorded torus is not vertex transitive, so tau2 varies by node;
# the joint law stays symmetric with unit marginal variances
chorded = ws.GmrfSpec(ws.torus_with_chords(18, 18, 60, seed=1), eta=-0.18)
chorded_cov, chorded_resid = ws.joint_covariance(chorded)
print("chorded torus: tau2 in", (round(float(chorded.tau2.min()), 4),
                                 round(float(chorded.tau2.max()), 4)),
      "max |variance - 1|", f"{np.max(np.abs(np.diag(chorded_cov) - 1.0)):.1e}",
      "asymmetry residual", chorded_resid)

part = ws.concliques(graph)
cfg = ws.ChainConfig(iterations=25_000, burn_in=5_000, seed=42)
final, trace = ws.gibbs_chain(spec, part, cfg, trace_every=1)
print(f"\ngibbs: {cfg.iterations} sweeps over {len(part)} conclique classes, "
      f"{trace.shape[0]} kept states")

emp = np.cov(trace.T)
print("max |empirical - analytic| covariance entry:",
      round(float(np.max(np.abs(emp - cov))), 4))

draws = ws.direct_sample(spec, seed=7, count=20_000)
print("direct sampler agreement:",
      round(float(np.max(np.abs(np.cov(draws.T) - emp))), 4))

# dependent components for a bivariate design: one innovation stream feeds a
# pair of chains, correlated 0.7 at every node and sweep; at eta = 0 each
# state is exactly that sweep's innovations
flat = ws.GmrfSpec(graph, eta=0.0)
_, pair_trace = ws.chain_engine([flat, flat], part, 1_500, trace_every=1)([(3, 0.7)])
pairs = pair_trace.transpose(1, 0, 2).reshape(2, -1)
print("\ncoupled innovations: sample correlation",
      round(float(np.corrcoef(pairs)[0, 1]), 4))

# the design transform: normal marginals onto the unit interval
u = ws.to_uniform(final)
print("unit-interval transform of the final state: range",
      (round(float(u.min()), 4), round(float(u.max()), 4)))

ws.field_to_csv(final, "field_demo.csv")
print("final state written to field_demo.csv")
