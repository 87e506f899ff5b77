"""Static cross-validation of optimizer/run configurations.

The dataclass ``__post_init__`` validators in :mod:`repro.core.config`
police single fields; this module checks the *relationships* a run's
correctness depends on — the mistakes that silently waste the paper's
200-simulation budget rather than crashing:

* elite-set size (``N_es``) vs. initial-sample count vs. simulation
  budget (an elite set larger than everything ever simulated never fills);
* near-sampling cadence ``T_NS`` vs. the round count the budget allows
  (too-sparse cadence means Alg. 2 never fires);
* actor-training batch size vs. dataset size;
* action/proposal geometry (zero action scale freezes every actor; a
  minimum proposal distance beyond the action range livelocks proposals);
* learning-rate and penalty-weight sanity;
* design-space well-formedness (integer parameters with an empty
  representable range, non-finite bounds).

Checkpoint settings are run arguments, not config fields; the run checks
them before its first simulation
(:func:`repro.core.driver.check_checkpointing`).

:func:`check_config` returns :class:`~repro.analysis.diagnostics.Diagnostic`
findings; :func:`validate_config` raises on error severity (the
construction-time fail-fast used by
:class:`~repro.core.ma_opt.MAOptimizer`).
"""

from __future__ import annotations

import math

from repro.analysis.diagnostics import Diagnostic, RuleSet, Severity

CFG_RULES = RuleSet()
CFG_RULES.add("cfg.action-scale", Severity.ERROR,
              "action scale must be positive (zero freezes every actor); "
              "scales above 1 make each proposal a teleport")
CFG_RULES.add("cfg.learning-rate", Severity.ERROR,
              "learning rates must be positive and sane")
CFG_RULES.add("cfg.lambda-viol", Severity.ERROR,
              "constraint penalty weight must be non-negative")
CFG_RULES.add("cfg.identity-fraction", Severity.ERROR,
              "pseudo-sample identity fraction must lie in [0, 1]")
CFG_RULES.add("cfg.proposal-distance", Severity.ERROR,
              "minimum proposal separation must be non-negative and "
              "reachable within the action range")
CFG_RULES.add("cfg.elite-vs-init", Severity.WARNING,
              "elite set larger than the initial sample set")
CFG_RULES.add("cfg.elite-vs-budget", Severity.ERROR,
              "elite set larger than everything the run will ever simulate")
CFG_RULES.add("cfg.ns-cadence", Severity.WARNING,
              "near-sampling cadence T_NS exceeds the round count the "
              "budget allows — Alg. 2 never fires")
CFG_RULES.add("cfg.batch-vs-data", Severity.WARNING,
              "training batch size exceeds the initial dataset size")
CFG_RULES.add("cfg.ns-radius", Severity.WARNING,
              "near-sampling radius so large the samples are not 'near'")
CFG_RULES.add("cfg.space-integer", Severity.ERROR,
              "integer parameter whose bounds contain no integer")
CFG_RULES.add("cfg.space-bounds", Severity.ERROR,
              "parameter bounds must be finite (and not collapsed)")


def _check_space(space) -> list[Diagnostic]:
    diags: list[Diagnostic] = []
    for p in space:
        if not (math.isfinite(p.low) and math.isfinite(p.high)):
            diags.append(CFG_RULES.diag(
                "cfg.space-bounds",
                f"parameter {p.name!r} has non-finite bounds "
                f"[{p.low!r}, {p.high!r}]",
                location=f"space.{p.name}",
                fix="use finite physical bounds"))
            continue
        if p.integer and math.ceil(p.low) > math.floor(p.high):
            diags.append(CFG_RULES.diag(
                "cfg.space-integer",
                f"integer parameter {p.name!r} has no representable value "
                f"in [{p.low:g}, {p.high:g}]",
                location=f"space.{p.name}",
                fix="widen the bounds to include an integer"))
    return diags


def check_config(config, task=None, n_sims: int | None = None,
                 n_init: int | None = None) -> list[Diagnostic]:
    """Cross-validate an :class:`~repro.core.config.MAOptConfig`.

    ``task`` adds design-space checks; ``n_sims``/``n_init`` (when the run
    plan is known) add the budget-dependent checks the paper's protocol
    makes critical: ``N_es`` vs. sample counts and ``T_NS`` vs. the round
    count.  Returns diagnostics; see :func:`validate_config` for the
    raising variant.
    """
    diags: list[Diagnostic] = []

    if not config.action_scale > 0:
        diags.append(CFG_RULES.diag(
            "cfg.action-scale",
            f"action_scale={config.action_scale!r} freezes every actor "
            f"(proposals never move off the elite states)",
            location="action_scale", fix="use a value in (0, 1]"))
    elif config.action_scale > 1.0:
        diags.append(CFG_RULES.diag(
            "cfg.action-scale",
            f"action_scale={config.action_scale:g} spans more than the "
            f"whole normalized space; every proposal is a teleport",
            location="action_scale", severity=Severity.WARNING,
            fix="use a value in (0, 1]"))

    for name in ("critic_lr", "actor_lr"):
        lr = getattr(config, name)
        if not lr > 0:
            diags.append(CFG_RULES.diag(
                "cfg.learning-rate",
                f"{name}={lr!r} must be positive",
                location=name, fix="use a small positive learning rate"))
        elif lr > 1.0:
            diags.append(CFG_RULES.diag(
                "cfg.learning-rate",
                f"{name}={lr:g} is certain to diverge",
                location=name, severity=Severity.WARNING,
                fix="use a learning rate well below 1"))

    if config.lambda_viol < 0:
        diags.append(CFG_RULES.diag(
            "cfg.lambda-viol",
            f"lambda_viol={config.lambda_viol!r} rewards constraint "
            f"violation",
            location="lambda_viol", fix="use a non-negative penalty weight"))

    if not 0.0 <= config.identity_fraction <= 1.0:
        diags.append(CFG_RULES.diag(
            "cfg.identity-fraction",
            f"identity_fraction={config.identity_fraction!r} is not a "
            f"fraction",
            location="identity_fraction", fix="use a value in [0, 1]"))

    if config.proposal_min_dist < 0:
        diags.append(CFG_RULES.diag(
            "cfg.proposal-distance",
            f"proposal_min_dist={config.proposal_min_dist!r} must be >= 0",
            location="proposal_min_dist", fix="use a non-negative distance"))
    elif (config.action_scale > 0
          and config.proposal_min_dist > 2.0 * config.action_scale):
        diags.append(CFG_RULES.diag(
            "cfg.proposal-distance",
            f"proposal_min_dist={config.proposal_min_dist:g} exceeds the "
            f"2*action_scale={2 * config.action_scale:g} reachable spread; "
            f"same-elite proposals can never satisfy it",
            location="proposal_min_dist", severity=Severity.WARNING,
            fix="keep proposal_min_dist <= 2*action_scale"))

    if config.ns_radius > 0.5:
        diags.append(CFG_RULES.diag(
            "cfg.ns-radius",
            f"ns_radius={config.ns_radius:g} covers most of the normalized "
            f"space; 'near' sampling degenerates to random sampling",
            location="ns_radius", fix="use a small per-dimension radius"))

    if n_init is not None:
        if config.n_elite > n_init:
            diags.append(CFG_RULES.diag(
                "cfg.elite-vs-init",
                f"n_elite={config.n_elite} exceeds the n_init={n_init} "
                f"initial samples; the elite 'set' is the whole dataset "
                f"until later rounds",
                location="n_elite",
                fix="use n_elite <= n_init (paper: N_es << N_init)"))
        if config.batch_size > n_init:
            diags.append(CFG_RULES.diag(
                "cfg.batch-vs-data",
                f"batch_size={config.batch_size} exceeds the "
                f"n_init={n_init} initial dataset; early batches oversample "
                f"duplicates",
                location="batch_size", fix="use batch_size <= n_init"))
    if n_sims is not None and n_init is not None:
        total = n_sims + n_init
        if config.n_elite > total:
            diags.append(CFG_RULES.diag(
                "cfg.elite-vs-budget",
                f"n_elite={config.n_elite} exceeds the total "
                f"{total} simulations the run can ever produce; the elite "
                f"set never fills",
                location="n_elite",
                fix="shrink n_elite or raise the budget"))
    if n_sims is not None and config.near_sampling:
        max_rounds = max(1, -(-n_sims // max(1, config.n_actors)))
        if config.t_ns > max_rounds:
            diags.append(CFG_RULES.diag(
                "cfg.ns-cadence",
                f"t_ns={config.t_ns} exceeds the ~{max_rounds} rounds a "
                f"{n_sims}-simulation budget allows with "
                f"{config.n_actors} actors; near-sampling never triggers",
                location="t_ns",
                fix="lower t_ns or disable near_sampling"))

    if task is not None:
        diags.extend(_check_space(task.space))
    return diags


class ConfigLintError(ValueError):
    """Raised by :func:`validate_config` on error-severity findings;
    carries the full diagnostic list on :attr:`diagnostics`."""

    def __init__(self, diagnostics) -> None:
        self.diagnostics = list(diagnostics)
        errors = [d for d in self.diagnostics
                  if d.severity >= Severity.ERROR]
        super().__init__("configuration failed static validation:\n  "
                         + "\n  ".join(d.render() for d in errors))


def validate_config(config, task=None, n_sims: int | None = None,
                    n_init: int | None = None) -> list[Diagnostic]:
    """Fail-fast variant of :func:`check_config`.

    Raises :class:`ConfigLintError` when any error-severity finding is
    present; otherwise returns the (warning/info) diagnostics so callers
    can log them.
    """
    diags = check_config(config, task=task, n_sims=n_sims, n_init=n_init)
    if any(d.severity >= Severity.ERROR for d in diags):
        raise ConfigLintError(diags)
    return diags
