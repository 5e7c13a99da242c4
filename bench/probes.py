"""Kernel probes of the traced run: named kernels timed alone, and validator decisiveness.

Each named kernel is called a few times on seeded inputs, untraced,
and its median wall time is reported, so every workload's traced run
carries the same kernel figures whether or not its ops reach them.

The decided ratios count how often a validator, given a certified-valid
input without its certificate, gives a decisive verdict: decided
verdicts divided by attempts, with the attempts reported beside them.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

import duoc.dynamics as dyn
import duoc.effects as eff
import duoc.nonlocality as nl
import duoc.oracle as oracle
import duoc.states as st
from duoc.systems import SystemSignature

from workloads import (
    is_undecided,
    random_effect,
    random_mixed,
    random_permutation,
    random_spec,
    reference_reversible,
    reference_vector,
)

# (d, m, n) of the 64-, 256- and 1024-dimensional rungs; tiny runs use 4, 8 and 16
FROM_VECTOR_SIGS = {"d64": (2, 3, 3), "d256": (2, 4, 4), "d1024": (2, 5, 5)}
TINY_SIGS = {"d64": (2, 1, 1), "d256": (2, 2, 1), "d1024": (2, 2, 2)}

DECIDED_MIXED_SIGS = ((2, 2, 1), (2, 2, 2), (2, 3, 3))
DECIDED_EFFECT_SIGS = ((2, 2, 1), (2, 2, 2))
DECIDED_PER_SIG = 20


def _median_ms(fn, repeats):
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
    return statistics.median(times) * 1e3


def _kernels(rng, tiny):
    sigs = {k: SystemSignature(*v) for k, v in (TINY_SIGS if tiny else FROM_VECTOR_SIGS).items()}
    big = sigs["d1024"]
    out = {}
    for label, sig in sigs.items():
        v = reference_vector(random_spec(sig, rng))
        out[f"states.from_vector.ms.{label}"] = _median_ms(
            lambda: st.DensityState.from_vector(sig, v), 3)
    rho = st.DensityState.from_vector(big, reference_vector(random_spec(big, rng)))
    rspec = dyn.ReversibleSpec(
        perm=random_permutation(big, rng),
        x_shifts=tuple(int(x) for x in rng.integers(0, 2, size=big.num_factors)),
        z_phases=tuple(int(x) for x in rng.integers(0, 2, size=big.num_factors)))
    u = reference_reversible(rspec, big, np.eye(big.dim, dtype=complex))
    positions = (0, big.m)
    effect = random_effect(big.sub_signature(positions), rng)
    out["dynamics.build_reversible.ms.d1024"] = _median_ms(
        lambda: dyn.build_reversible(rspec, big), 3)
    out["dynamics.apply_reversible.ms.d1024"] = _median_ms(
        lambda: dyn.apply_reversible(u, rho), 3)
    out["effects.conditional_state.ms.d1024"] = _median_ms(
        lambda: eff.conditional_state(rho, effect, positions), 3)
    # the arguments of the `witness` and `consistency` demos
    grid = 0.05 if tiny else 0.01
    out["effects.worst_case_no_probability.ms"] = _median_ms(
        lambda: eff.worst_case_no_probability(0.3, grid_step=grid), 3)
    trials, csig = (10, SystemSignature(2, 1, 1)) if tiny else (150, SystemSignature(2, 2, 2))
    out["oracle.brute_force_conditional_check.ms"] = _median_ms(
        lambda: oracle.brute_force_conditional_check(trials, csig, rng), 3)
    alice, bob = nl.optimal_chsh_bases()
    out["nonlocality.chsh_value.ms"] = _median_ms(lambda: nl.chsh_value(alice, bob), 5)
    d = 3 if tiny else 6
    alphas = rng.uniform(0.05, 1.0, size=d)
    setup = nl.activation_setup(alphas / np.linalg.norm(alphas), 0)
    out["nonlocality.activation_F.ms.d6"] = _median_ms(lambda: nl.activation_F(setup), 3)
    return out


def _decided(rng, tiny, errors):
    per_sig = 2 if tiny else DECIDED_PER_SIG
    counts = {"states.validate_mixed": [0, 0], "effects.validate_effect": [0, 0]}

    def tally(name, report):
        counts[name][1] += 1
        if report.valid:
            counts[name][0] += 1
        elif not is_undecided(report):
            errors.append(f"{name}: certified-valid input rejected decisively")

    for dmn in DECIDED_MIXED_SIGS:
        sig = SystemSignature(*dmn)
        for _ in range(per_sig):
            rho, _cert = random_mixed(sig, rng)
            tally("states.validate_mixed", st.validate_mixed_state(rho))
    for dmn in DECIDED_EFFECT_SIGS:
        sig = SystemSignature(*dmn)
        for _ in range(per_sig):
            tally("effects.validate_effect",
                  eff.validate_effect(random_effect(sig, rng, certified=False)))
    out = {}
    for name, (decided, attempts) in counts.items():
        out[f"{name}.decided_ratio"] = decided / attempts
        out[f"{name}.attempts"] = attempts
    return out


def run(seed, tiny):
    """Returns ``(kernel_ms, decided, errors)``."""
    rng = np.random.default_rng([seed, 1])
    errors = []
    kernels = _kernels(rng, tiny)
    return kernels, _decided(rng, tiny, errors), errors
