import sys

import pytest

import cyclecap as cc
import cyclecap.cli
import layers


def _snapshot():
    modules = [m for k, m in sys.modules.items() if k == "cyclecap" or k.startswith("cyclecap.")]
    attrs = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    attrs[("SamplerState", "for_model")] = cc.SamplerState.__dict__["for_model"]
    return attrs


def _changed(before):
    after = _snapshot()
    return sorted(k for k in before if after.get(k) is not before[k])


def test_tracer_rebinds_names_imported_by_name_and_restores_them():
    before = _snapshot()
    original = cc.exact.solve_saddle
    with layers.Tracer() as tracer:
        for module in (cc.exact, cc.sampler, cc):
            assert module.solve_saddle is not original
        assert cc.cli.sample_lengths is not before[("cyclecap.sampler", "sample_lengths")]
        assert cc.exact._log_linear_dp is not before[("cyclecap.exact", "_log_linear_dp")]
        changed = _changed(before)
        tracer.job = "q"
        cc.partition_function(cc.ConstraintModel(n=50, alpha=7, theta=1.0))
        cc.sample_lengths(cc.ConstraintModel(n=30, alpha=5, theta=1.0), 3, seed=1)
    assert ("cyclecap.cli", "solve_model_saddle") in changed
    assert ("cyclecap.limits", "mu_alpha_of") in changed
    assert ("SamplerState", "for_model") in changed
    assert _changed(before) == []
    names = [s.name for s in tracer.spans]
    assert names[:3] == ["exact.partition_function", "saddle.solve_saddle", "exact.egf_coefficients"]
    dp = next(s for s in tracer.spans if s.name == "exact._log_linear_dp")
    assert tracer.spans[dp.parent].name == "exact.egf_coefficients"
    assert dp.info == {"alpha": 7, "N": 50, "cells": 350, "narrow": True}
    draw = next(s for s in tracer.spans if s.name == "sampler.sample_lengths")
    assert draw.info["draws"] == 3 and draw.info["model"] == (30, 5, 1.0)
    assert {s.job for s in tracer.spans} == {"q"}


def test_tracer_restores_after_an_exception():
    before = _snapshot()
    with pytest.raises(cc.ConstraintError):
        with layers.Tracer():
            cc.expected_cycle_count(cc.ConstraintModel(n=20, alpha=4, theta=1.0), 9)
    assert _changed(before) == []
