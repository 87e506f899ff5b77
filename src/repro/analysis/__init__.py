"""``repro.analysis`` — static analysis before anything expensive runs.

MA-Opt's whole premise is a tight simulation budget (Alg. 3: ~200 sims);
a malformed netlist or a self-inconsistent configuration wastes exactly
that resource.  This subsystem catches both *statically*, plus the
invariants that keep runs reproducible, behind one ``ma-opt lint``
command:

* :mod:`repro.analysis.erc` — electrical rule checks over netlists
  (topology + device values), also wired as the pre-simulation gate in
  :class:`~repro.core.parallel.SimulationExecutor`;
* :mod:`repro.analysis.configlint` — cross-field validation of
  :class:`~repro.core.config.MAOptConfig` / run plans / design spaces;
* :mod:`repro.analysis.codelint` — AST linter enforcing repo invariants
  (no global RNG, no pickle, no wall-clock in ``core/``, ...);
* :mod:`repro.analysis.rngflow` — Generator provenance over the shared
  dataflow core (:mod:`repro.analysis.flow`), guarding seeded
  determinism.

All analyzers emit the shared
:class:`~repro.analysis.diagnostics.Diagnostic` model (rule id,
severity, location, message, suggested fix), rendered as text or JSON
lines with ``--select``/``--ignore`` filtering and conventional exit
codes.  The package re-exports nothing, so importing one analyzer (the
ERC gate on every simulation, say) loads only that module; import from
the submodules.  See ``docs/static_analysis.md`` for the rule catalog.
"""
