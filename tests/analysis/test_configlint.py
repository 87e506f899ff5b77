"""Tests for the configuration cross-validation checks."""

import pytest

from repro.analysis.configlint import (
    CFG_RULES,
    ConfigLintError,
    check_config,
    validate_config,
)
from repro.analysis.diagnostics import Severity
from repro.core.config import MAOptConfig
from repro.core.space import DesignSpace, Parameter
from repro.experiments.config import TUNED_MAOPT, BenchConfig


def rules(diags):
    return {d.rule for d in diags}


class TestScalarRules:
    @pytest.mark.parametrize("config", [MAOptConfig(),
                                        MAOptConfig(**TUNED_MAOPT)],
                             ids=["default", "tuned"])
    def test_default_config_is_clean(self, config):
        assert check_config(config) == []
        # The elite set (N_es) must fit in the bench protocol's initial
        # set; the budgeted check may still warn about other rules (the
        # default batch size exceeds n_init = 50, cfg.batch-vs-data).
        bench = BenchConfig()
        diags = check_config(config, n_sims=bench.n_sims,
                             n_init=bench.n_init)
        assert not [d for d in diags if d.rule.startswith("cfg.elite")]

    def test_zero_action_scale_is_error(self):
        diags = check_config(MAOptConfig(action_scale=0.0))
        assert rules(diags) == {"cfg.action-scale"}
        assert diags[0].severity == Severity.ERROR

    def test_oversized_action_scale_is_warning(self):
        diags = check_config(MAOptConfig(action_scale=1.5))
        assert diags[0].rule == "cfg.action-scale"
        assert diags[0].severity == Severity.WARNING

    def test_nonpositive_lr_is_error(self):
        diags = check_config(MAOptConfig(critic_lr=0.0))
        assert rules(diags) == {"cfg.learning-rate"}

    def test_huge_lr_is_warning(self):
        diags = check_config(MAOptConfig(actor_lr=2.0))
        assert diags[0].severity == Severity.WARNING

    def test_negative_lambda_viol(self):
        assert rules(check_config(MAOptConfig(lambda_viol=-1.0))) \
            == {"cfg.lambda-viol"}

    def test_identity_fraction_out_of_range(self):
        assert rules(check_config(MAOptConfig(identity_fraction=1.5))) \
            == {"cfg.identity-fraction"}

    def test_unreachable_proposal_distance_is_warning(self):
        diags = check_config(MAOptConfig(action_scale=0.1,
                                         proposal_min_dist=0.5))
        assert rules(diags) == {"cfg.proposal-distance"}
        assert diags[0].severity == Severity.WARNING

    def test_huge_ns_radius_is_warning(self):
        diags = check_config(MAOptConfig(ns_radius=0.9))
        assert rules(diags) == {"cfg.ns-radius"}


class TestBudgetRules:
    def test_skipped_without_budget(self):
        # n_elite=50 is only judgeable against a known run plan.
        assert check_config(MAOptConfig(n_elite=50)) == []

    def test_elite_vs_init_is_warning(self):
        diags = check_config(MAOptConfig(n_elite=20), n_init=10,
                             n_sims=200)
        assert "cfg.elite-vs-init" in rules(diags)

    def test_elite_vs_budget_is_error(self):
        diags = check_config(MAOptConfig(n_elite=50), n_init=10, n_sims=20)
        errors = [d for d in diags if d.rule == "cfg.elite-vs-budget"]
        assert errors and errors[0].severity == Severity.ERROR

    def test_ns_cadence_never_fires(self):
        cfg = MAOptConfig(t_ns=100, near_sampling=True, n_actors=5)
        diags = check_config(cfg, n_sims=200, n_init=100)
        assert "cfg.ns-cadence" in rules(diags)

    def test_ns_cadence_ok_when_rounds_suffice(self):
        cfg = MAOptConfig(t_ns=5, near_sampling=True, n_actors=5)
        assert check_config(cfg, n_sims=200, n_init=100) == []

    def test_batch_vs_data(self):
        diags = check_config(MAOptConfig(batch_size=64), n_init=10,
                             n_sims=200)
        assert "cfg.batch-vs-data" in rules(diags)


class TestSpaceRules:
    class FakeTask:
        def __init__(self, space):
            self.space = space

    def test_integer_with_empty_range(self):
        space = DesignSpace([Parameter("N", 1.2, 1.8, integer=True)])
        diags = check_config(MAOptConfig(), task=self.FakeTask(space))
        assert rules(diags) == {"cfg.space-integer"}

    def test_nonfinite_bounds(self):
        space = DesignSpace([Parameter("W", 0.1, float("inf"))])
        diags = check_config(MAOptConfig(), task=self.FakeTask(space))
        assert rules(diags) == {"cfg.space-bounds"}

    def test_real_tasks_are_clean(self):
        from repro.circuits import LDORegulator, ThreeStageTIA, TwoStageOTA

        for task in (TwoStageOTA(), ThreeStageTIA(), LDORegulator()):
            assert check_config(MAOptConfig(), task=task) == []


class TestValidateConfig:
    def test_raises_on_error(self):
        with pytest.raises(ConfigLintError) as excinfo:
            validate_config(MAOptConfig(action_scale=0.0))
        assert any(d.rule == "cfg.action-scale"
                   for d in excinfo.value.diagnostics)

    def test_returns_warnings(self):
        diags = validate_config(MAOptConfig(action_scale=1.5))
        assert rules(diags) == {"cfg.action-scale"}

    def test_optimizer_constructor_fails_fast(self):
        from repro.core.ma_opt import MAOptimizer
        from repro.core.synthetic import ConstrainedSphere

        with pytest.raises(ConfigLintError):
            MAOptimizer(ConstrainedSphere(), MAOptConfig(critic_lr=-1.0))

    def test_optimizer_logs_budget_findings_without_raising(self):
        from repro.core.ma_opt import MAOptimizer
        from repro.core.synthetic import ConstrainedSphere

        opt = MAOptimizer(ConstrainedSphere(),
                          MAOptConfig(n_elite=8, hidden=(8,),
                                      critic_steps=2, actor_steps=2,
                                      n_actors=2))
        res = opt.run(n_sims=4, n_init=3)
        assert len(res.records) == 4
        logged = {e.payload["rule"]
                  for e in opt.run_log.events("config_warning")}
        assert "cfg.elite-vs-budget" in logged


class TestCatalog:
    def test_every_rule_has_description(self):
        for rule in CFG_RULES:
            assert rule.id.startswith("cfg.")
            assert rule.description
