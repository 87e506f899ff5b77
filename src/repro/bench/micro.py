"""Built-in micro benchmarks: isolated hot paths of the optimizer stack.

Importing this module registers the suite into
:data:`repro.bench.registry.REGISTRY`.  Every setup derives all inputs
from its seeded generator (see ``docs/benchmarking.md``); payloads with
sub-millisecond single calls loop internally so one timed call stays well
above timer resolution — the loop count is part of the benchmark's
definition and must not change without resetting baselines.
"""

from __future__ import annotations

import os
import tempfile

import numpy as np

from repro.bench.registry import REGISTRY
from repro.core.fom import FigureOfMerit
from repro.core.population import EliteSet, TotalDesignSet
from repro.core.synthetic import ConstrainedSphere

_D = 12          # design dimensionality of the synthetic datasets
_N_SET = 256     # designs in the synthetic X^tot


def _sphere_dataset(rng: np.random.Generator, n: int = _N_SET,
                    d: int = _D) -> tuple[ConstrainedSphere, FigureOfMerit,
                                          TotalDesignSet]:
    """A sphere task plus an X^tot of ``n`` simulated random designs."""
    task = ConstrainedSphere(d=d, seed=7)
    fom = FigureOfMerit(task)
    total = TotalDesignSet(d, task.m + 1)
    for x in task.space.sample(rng, n):
        f = task.evaluate(x)
        total.add(x, f, float(fom(f)))
    return task, fom, total


def _ota_circuit():
    """The mid-space Table-I OTA netlist (the repo's canonical circuit)."""
    from repro.circuits import TwoStageOTA
    from repro.circuits.ota import build_ota

    task = TwoStageOTA(fidelity="fast")
    params = task.space.denormalize(np.full(task.d, 0.5))
    circuit = build_ota(params)
    circuit.ensure_bound()
    return circuit


# -- SPICE engine -----------------------------------------------------------

@REGISTRY.register(
    "micro.mna.assemble", repeats=5, warmup=1,
    description="20x dense MNA assembly of the mid-space OTA at a fixed "
                "iterate (the inner loop of every Newton step)")
def _bench_mna_assemble(rng: np.random.Generator):
    from repro.spice.mna import StampContext

    circuit = _ota_circuit()
    x = rng.normal(0.0, 0.1, size=circuit.size)
    ctx = StampContext(analysis="dc")

    def payload():
        for _ in range(20):
            circuit.assemble(x, ctx)

    return payload


@REGISTRY.register(
    "micro.mna.solve", repeats=5, warmup=1,
    description="cold DC operating point of the mid-space OTA (full "
                "Newton + homotopy ladder)")
def _bench_mna_solve(rng: np.random.Generator):
    from repro.spice.dc import operating_point

    del rng  # the cold solve is input-free by design
    circuit = _ota_circuit()

    def payload():
        operating_point(circuit)

    return payload


@REGISTRY.register(
    "micro.spice.ac-sweep", repeats=5, warmup=1,
    description="AC sweep of the mid-space OTA over 10 Hz..1 GHz at 4 "
                "points/decade from a precomputed operating point")
def _bench_ac_sweep(rng: np.random.Generator):
    from repro.spice.ac import ac_analysis, logspace_frequencies
    from repro.spice.dc import operating_point

    del rng
    circuit = _ota_circuit()
    x_op = operating_point(circuit).x
    freqs = logspace_frequencies(10.0, 1e9, points_per_decade=4)

    def payload():
        ac_analysis(circuit, freqs, x_op)

    return payload


# -- pseudo-samples (Eq. 3) -------------------------------------------------

@REGISTRY.register(
    "micro.pseudo.batch", repeats=5, warmup=1,
    description="50x pseudo_sample_batch(256) from a 256-design X^tot "
                "(one critic-training minibatch each)")
def _bench_pseudo_batch(rng: np.random.Generator):
    from repro.core.pseudo import pseudo_sample_batch

    _task, _fom, total = _sphere_dataset(rng)

    def payload():
        for _ in range(50):
            pseudo_sample_batch(total, _N_SET, rng)

    return payload


@REGISTRY.register(
    "micro.pseudo.all", repeats=5, warmup=1,
    description="all_pseudo_samples(max_pairs=4096) from a 256-design "
                "X^tot (offline critic fitting path)")
def _bench_pseudo_all(rng: np.random.Generator):
    from repro.core.pseudo import all_pseudo_samples

    _task, _fom, total = _sphere_dataset(rng)

    def payload():
        all_pseudo_samples(total, max_pairs=4096, rng=rng)

    return payload


# -- training steps (Eqs. 4-5) ----------------------------------------------

@REGISTRY.register(
    "micro.train.critic", repeats=5, warmup=1,
    description="20 critic MSE steps (batch 64) on pseudo-sample batches "
                "from a 256-design X^tot")
def _bench_train_critic(rng: np.random.Generator):
    from repro.core.networks import Critic
    from repro.core.training import train_critic

    task, _fom, total = _sphere_dataset(rng)
    critic = Critic(task.d, task.m + 1,
                    seed=int(rng.integers(0, 2**31)))

    def payload():
        train_critic(critic, total, steps=20, batch_size=64, rng=rng)

    return payload


@REGISTRY.register(
    "micro.train.actor", repeats=5, warmup=1,
    description="10 actor updates (batch 64) against a frozen critic with "
                "the Eq. 6 elite-box penalty")
def _bench_train_actor(rng: np.random.Generator):
    from repro.core.networks import Actor, Critic
    from repro.core.training import train_actor, train_critic

    task, fom, total = _sphere_dataset(rng)
    critic = Critic(task.d, task.m + 1, seed=int(rng.integers(0, 2**31)))
    train_critic(critic, total, steps=5, batch_size=64, rng=rng)
    actor = Actor(task.d, action_scale=0.2,
                  seed=int(rng.integers(0, 2**31)))
    elite = EliteSet(total, 16)

    def payload():
        train_actor(actor, critic, fom, total, elite, steps=10,
                    batch_size=64, lambda_viol=10.0, rng=rng)

    return payload


@REGISTRY.register(
    "micro.ns.rank-2000", repeats=5, warmup=1,
    description="near-sampling round: rank 2000 candidates (the paper's "
                "N_samples) with one batched critic forward pass")
def _bench_near_sampling(rng: np.random.Generator):
    from repro.core.near_sampling import near_sampling_proposal
    from repro.core.networks import Critic

    task, fom, total = _sphere_dataset(rng)
    critic = Critic(task.d, task.m + 1, seed=int(rng.integers(0, 2**31)))
    critic.fit_scaler(total.metrics)
    x_opt = total.best()[0]

    def payload():
        near_sampling_proposal(critic, fom, x_opt, 0.04, 2000, rng,
                               margin=0.05)

    return payload


@REGISTRY.register(
    "micro.elite.update", repeats=5, warmup=1,
    description="20x shared elite-set re-rank over a 4096-design X^tot")
def _bench_elite_update(rng: np.random.Generator):
    _task, _fom, total = _sphere_dataset(rng, n=4096)
    elite = EliteSet(total, 24)

    def payload():
        for _ in range(20):
            elite.indices()

    return payload


# -- persistence ------------------------------------------------------------

@REGISTRY.register(
    "micro.ckpt.roundtrip", repeats=3, warmup=1,
    description="MAOptimizer checkpoint save + restore round-trip (16-"
                "design sphere run, paper-size 2x100 networks)")
def _bench_checkpoint(rng: np.random.Generator):
    from repro.core.config import MAOptConfig
    from repro.core.ma_opt import MAOptimizer

    task = ConstrainedSphere(d=_D, seed=7)
    config = MAOptConfig(seed=int(rng.integers(0, 2**31)))
    opt = MAOptimizer(task, config)
    opt.initialize(n_init=16)
    tmpdir = tempfile.mkdtemp(prefix="repro-bench-ckpt-")
    path = os.path.join(tmpdir, "bench.ckpt.npz")

    def payload():
        opt.save_checkpoint(path)
        MAOptimizer.restore(path, task)

    def cleanup():
        if os.path.exists(path):
            os.unlink(path)
        os.rmdir(tmpdir)

    return payload, cleanup


@REGISTRY.register(
    "micro.serialize.roundtrip", repeats=3, warmup=1,
    description="OptimizationResult .npz save + load round-trip "
                "(128 records)")
def _bench_serialize(rng: np.random.Generator):
    from repro.core.result import EvaluationRecord, OptimizationResult
    from repro.core.serialize import load_result, save_result

    records = [
        EvaluationRecord(index=i, x=rng.uniform(size=_D),
                         metrics=rng.uniform(size=3),
                         fom=float(rng.uniform()), kind="actor",
                         owner=int(i % 3), feasible=bool(i % 2),
                         t_wall=float(i))
        for i in range(128)
    ]
    result = OptimizationResult(task_name="bench", method="MA-Opt",
                                records=records, init_best_fom=1.0,
                                wall_time_s=1.0)
    tmpdir = tempfile.mkdtemp(prefix="repro-bench-npz-")
    path = os.path.join(tmpdir, "bench-result.npz")

    def payload():
        save_result(result, path)
        load_result(path)

    def cleanup():
        if os.path.exists(path):
            os.unlink(path)
        os.rmdir(tmpdir)

    return payload, cleanup


# -- observability ------------------------------------------------------------

@REGISTRY.register(
    "micro.obs.event-emit", repeats=5, warmup=1,
    description="500x RunLogger.emit streamed to a JSONL file (the "
                "per-evaluation event path, lock + write + flush)")
def _bench_event_emit(rng: np.random.Generator):
    from repro.obs.events import RunLogger

    tmpdir = tempfile.mkdtemp(prefix="repro-bench-events-")
    path = os.path.join(tmpdir, "events.jsonl")
    logger = RunLogger(path=path)
    fom = float(rng.uniform())

    def payload():
        for i in range(500):
            logger.emit("evaluation", kind="actor", index=i, fom=fom,
                        feasible=True, owner=i % 3)

    def cleanup():
        logger.close()
        os.unlink(path)
        os.rmdir(tmpdir)

    return payload, cleanup


@REGISTRY.register(
    "micro.obs.span-overhead", repeats=5, warmup=1,
    description="2000 enter/exit pairs of a live traced span plus the "
                "same count through NULL_TELEMETRY (the ~free no-op path)")
def _bench_span_overhead(rng: np.random.Generator):
    from repro.obs import NULL_TELEMETRY, Telemetry, Tracer

    del rng  # pure control-flow overhead; input-free by design

    def payload():
        tel = Telemetry(tracer=Tracer())
        for _ in range(2000):
            with tel.span("hot", kind="bench"):
                pass
        for _ in range(2000):
            with NULL_TELEMETRY.span("hot", kind="bench"):
                pass

    return payload


# -- static analysis ---------------------------------------------------------

@REGISTRY.register(
    "micro.analysis.rngflow", repeats=5, warmup=1,
    description="flow-sensitive RNG provenance pass over the four "
                "largest core/ modules (parse + scope build + rules)")
def _bench_rngflow(rng: np.random.Generator):
    import pathlib

    import repro
    from repro.analysis.rngflow import check_source

    del rng  # analyzes fixed source text; input-free by design
    root = pathlib.Path(repro.__file__).parent
    sources = [(str(p), p.read_text(encoding="utf-8"))
               for p in sorted((root / "core").glob("*.py"),
                               key=lambda p: -p.stat().st_size)[:4]]

    def payload():
        for path, text in sources:
            check_source(text, path=path)

    return payload


@REGISTRY.register(
    "micro.analysis.shapes", repeats=5, warmup=1,
    description="full shape-contract sweep (critic/actor IO, config "
                "bounds, construction sites) over the installed package")
def _bench_shapes(rng: np.random.Generator):
    from repro.analysis.shapes import check_shapes

    del rng  # analyzes fixed source text; input-free by design

    def payload():
        check_shapes()

    return payload
