"""The S-matrix checks of ``run_verify``: their batched evaluation against a
draw-by-draw reference, the dense embeddings they build, and planted
defects in the weights they read."""

import numpy as np
import pytest

from sixvertex import tensor_core as tc
from sixvertex import verify
from sixvertex import vertex_model as vm
from sixvertex.config import RunConfig

from conftest import RATIONAL, TRIG


def unitarity_by_draw(ctx):
    # One S-matrix pair and one product per draw, in draw order.
    rng, regime = ctx["rng"], ctx["regime"]
    worst = 0.0
    for _ in range(100):
        t1, t2 = verify._draw_pair(rng, regime)
        s12 = vm.s_matrix(t1, t2, regime)
        s21 = vm.s_matrix(t2, t1, regime)
        worst = max(worst, tc.max_abs_diff(s12 @ s21, np.eye(4)))
    return worst, {"draws": 100}


def yang_baxter_by_draw(ctx):
    # Three embedded S-matrices and both products per kept triple.
    rng, regime = ctx["rng"], ctx["regime"]
    worst = 0.0
    for _ in range(100):
        t1, t2 = verify._draw_pair(rng, regime)
        _, t3 = verify._draw_pair(rng, regime)
        if not (verify._guarded(t1, t3, regime) and verify._guarded(t2, t3, regime)):
            continue
        s12 = tc.embed_two_site(vm.s_matrix(t1, t2, regime), 1, 2, 3)
        s13 = tc.embed_two_site(vm.s_matrix(t1, t3, regime), 1, 3, 3)
        s23 = tc.embed_two_site(vm.s_matrix(t2, t3, regime), 2, 3, 3)
        worst = max(worst, tc.max_abs_diff(s12 @ s13 @ s23, s23 @ s13 @ s12))
    return worst, {"draws": 100}


@pytest.mark.parametrize(
    "check, reference",
    [
        (verify._check_unitarity, unitarity_by_draw),
        (verify._check_yang_baxter, yang_baxter_by_draw),
    ],
    ids=["unitarity", "yang_baxter"],
)
def test_batched_checks_match_the_draw_by_draw_loop(check, reference):
    # Equal residuals, and the generator left where the loop leaves it, so
    # no later check's draws move.
    for regime in (RATIONAL, TRIG):
        for seed in range(200):
            got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            got = check({"rng": got_rng, "regime": regime})
            want = reference({"rng": want_rng, "regime": regime})
            assert got == want, (regime.family, seed)
            assert got_rng.bit_generator.state == want_rng.bit_generator.state


def verify_family(family, length=4, magnons=2):
    eta = 1.0 if family == "rational" else 0.7
    report = verify.run_verify(RunConfig(family=family, eta=eta, length=length, magnons=magnons))
    return {r.name: r for r in report.results}


@pytest.mark.parametrize("family", ["rational", "trigonometric"])
def test_yang_baxter_embeds_each_factor_once(monkeypatch, family):
    # One stacked embedding per factor; the benchmark requires embed_two_site
    # to be reached on both verify workloads, and these are its only calls.
    calls = []
    embed = tc.embed_two_site

    def counted(gate, site_i, site_j, n_sites):
        calls.append((np.shape(gate), site_i, site_j, n_sites))
        return embed(gate, site_i, site_j, n_sites)

    monkeypatch.setattr(tc, "embed_two_site", counted)
    verify_family(family, length=5, magnons=2)
    assert [c[1:] for c in calls] == [(1, 2, 3), (1, 3, 3), (2, 3, 3)]
    assert all(len(shape) == 3 and shape[1:] == (4, 4) for shape, *_ in calls)


@pytest.mark.parametrize("family", ["rational", "trigonometric"])
def test_planted_c_weight_error_fails_both_s_matrix_checks(monkeypatch, family):
    c_weight = vm.c_weight
    monkeypatch.setattr(vm, "c_weight", lambda t, regime: c_weight(t, regime) * (1 + 1e-6))
    results = verify_family(family)
    assert not results["unitarity"].passed and not results["yang_baxter"].passed


@pytest.mark.parametrize("family", ["rational", "trigonometric"])
def test_planted_b_sign_error_fails_only_yang_baxter(monkeypatch, family):
    # S(t) S(-t) = 1 survives b -> -b: the sign cancels in every product.
    b_weight = vm.b_weight
    monkeypatch.setattr(vm, "b_weight", lambda t, regime: -b_weight(t, regime))
    results = verify_family(family)
    assert results["yang_baxter"].residual > 1
    assert results["unitarity"].passed
