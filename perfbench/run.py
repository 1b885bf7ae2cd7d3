"""magma-lab benchmark: one workload per process, one JSON result line.

    python3 perfbench/run.py --workload evolve_1d --seed 1 --seconds 12 --trace 0

Run from the root of a checkout; the package is imported from its ``src``.
``--trace 0`` prints the end-to-end metrics of BENCHMARK.json, ``--trace 1``
the per-layer metrics from a separate traced run.  Human-readable lines come
first; the last line of standard output is the JSON result.  See
perfbench/README.md for the workloads, metrics and counter boundaries.
"""

from __future__ import annotations

import os

# Pin the numerical libraries to one thread for this process and its children
# before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5


def _import_package() -> None:
    """Import magma_lab from this checkout's src, never from elsewhere."""
    if not (SRC / "magma_lab" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no package source at {SRC / 'magma_lab'}")
    sys.path.insert(0, str(SRC))
    import magma_lab

    if not Path(magma_lab.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"perfbench: imported magma_lab from {magma_lab.__file__}")


def fresh_import_s() -> float:
    """Wall time of a new interpreter importing the package's command line."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import magma_lab.cli"], env=env, cwd=ROOT, check=True)
    return time.perf_counter() - t0


def machine_facts(workload: str, seed: int, traced: bool) -> dict:
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "workload": workload, "seed": seed, "traced": traced,
        "nproc": os.cpu_count(), "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def run_checks(w, results) -> list[str]:
    failures = []
    for r in results:
        try:
            reasons = [r.error] if r.error else w.check(r)
        except Exception as exc:  # a check that cannot run is a failed check
            reasons = [f"check raised {type(exc).__name__}: {exc}"]
        failures.extend(f"{r.label}: {why}" for why in reasons)
        if reasons:
            r.failed = True
    return failures


# -- untraced run: end-to-end metrics ------------------------------------------

def untraced(w, seconds: float):
    from reference import SMALL_FFT_NOMINAL_S, small_fft, timed

    # Set-up is timed like the operations, against a reference kernel run
    # before and after it, and converted back to seconds at the kernel's
    # nominal speed.
    setups, setup_ratios = [], []
    before = timed(small_fft)
    for _ in range(SETUP_REPEATS):
        t_import = fresh_import_s()
        t0 = time.perf_counter()
        w.setup()
        setups.append(t_import + time.perf_counter() - t0)
        after = timed(small_fft)
        setup_ratios.append(setups[-1] / (0.5 * (before + after)))
        before = after
    w.warmup()

    # Whole chains, at least min_ops operations, for at least `seconds`; the
    # reference kernel runs before the first operation and after each one.
    timed(w.REFERENCE)  # warm-up
    before = timed(w.REFERENCE)
    results = []
    t0 = time.perf_counter()
    while (len(results) < w.min_ops or len(results) % w.CHAIN
           or time.perf_counter() - t0 < seconds):
        r = w.op(len(results))
        after = timed(w.REFERENCE)
        r.ref_seconds = 0.5 * (before + after)
        before = after
        results.append(r)
    failures = run_checks(w, results)

    # Cost is an operation's wall time in units of the reference kernel
    # timed around it.  Latency is cost per unit of work: per accepted step
    # on the evolution workloads, per cell on shoot_grid, so a segment that
    # ends early in a verdict still reads like the others.
    units = sum(r.units for r in results)
    cost = [r.seconds / r.ref_seconds for r in results]
    lat = [c / max(r.units, 1) for c, r in zip(cost, results)]
    lat_ms = [1e3 * r.seconds / max(r.units, 1) for r in results]
    metrics = {
        "setup_s": SMALL_FFT_NOMINAL_S * statistics.median(setup_ratios),
        "ops_per_ref": units / sum(cost),
        "latency_ref_p50": float(np.percentile(lat, 50)),
        "latency_ref_p75": float(np.percentile(lat, 75)),
        "peak_rss_mb": peak_rss_mb(),
    }
    raw = {
        "setup_s": statistics.median(setups),
        "ops_per_s": units / sum(r.seconds for r in results),
        "latency_ms_p50": float(np.percentile(lat_ms, 50)),
        "latency_ms_p75": float(np.percentile(lat_ms, 75)),
        "reference_ms": 1e3 * statistics.median(r.ref_seconds for r in results),
    }
    return metrics, raw, results, failures


# -- traced run: per-layer metrics ---------------------------------------------

def traced(w, tracer, workdir: Path):
    import workloads
    from tracing import install_package_wrappers

    with tracer.span("setup"), tracer.installed(install_package_wrappers):
        w.setup()
    w.warmup()

    plain = [w.op(i) for i in range(w.traced_ops)]
    with tracer.span("traced"), tracer.installed(install_package_wrappers):
        results = [w.op(i) for i in range(w.traced_ops)]
    for r in results:
        r.label += " (traced)"
    overhead = sum(r.seconds for r in results) / sum(r.seconds for r in plain) - 1.0

    # Layers the workload does not reach are measured on small probes: a
    # 100-step evolve_1d run through the CLI, and the transit_2d set-up.
    with tracer.installed(install_package_wrappers):
        torus = workloads.Evolve1D(w.seed, workdir / "probe", tracer, segment_t=0.1, chain=1,
                                   snapshot_every=50)
        torus.setup()
        with tracer.span("probe.torus"):
            torus.op(0)
        prof = workloads.Transit2D(w.seed, workdir, tracer)
        with tracer.span("probe.profile"):
            prof.setup()

    roots = [tracer.roots(n)[0] for n in ("traced", "setup", "probe.torus", "probe.profile")]
    m = span_metrics(tracer, roots)
    state = w.initial_state() or torus.initial_state()
    m.update(torus_micro(tracer, *state))
    m.update(profile_micro(w.profile_params() or prof.profile_params()))
    m["trace.overhead_pct"] = 100.0 * overhead

    failures = run_checks(w, plain + results)
    return m, {}, plain + results, failures


def span_metrics(tracer, roots) -> dict:
    """Per-layer counts and times from the spans, preferring the workload's own."""
    spans = tracer.spans

    def first(name):
        for r in roots:
            found = tracer.within(r, name)
            if found:
                return found
        raise RuntimeError(f"no {name} span recorded")

    def median_ms(indices):
        return 1e3 * statistics.median(spans[i].seconds for i in indices)

    def total(indices, key):
        return sum(tracer.total(i, key) for i in indices)

    m = {}
    evolves = first("evolution.evolve")
    steps = sum(spans[i].attrs["steps"] for i in evolves)
    cg_iters = sum(spans[i].attrs["cg_iters"] for i in evolves)
    calls = total(evolves, "fft.calls")
    m["grid.transforms_per_step"] = calls / steps
    m["grid.transform_us"] = 1e6 * total(evolves, "fft.s") / calls
    m["evolution.cg_iters_per_step"] = cg_iters / steps
    m["elliptic.cg_iters_per_solve"] = cg_iters / (4 * steps)  # four RK4 stages per step
    m["evolution.evolve_s"] = sum(spans[i].seconds for i in evolves)

    clis = first("cli.main")
    inner = sum(spans[i].seconds for c in clis for i in tracer.within(c, "evolution.evolve"))
    m["cli.self_s"] = sum(spans[c].seconds for c in clis) - inner
    m["cli.bytes_written"] = sum(spans[c].attrs["bytes"] for c in clis)

    searches = first("profile.find_mu_c")
    shots = [i for s in searches for i in tracer.within(s, "profile.integrate_shot")]
    m["profile.shots_per_search"] = len(shots) / len(searches)
    m["profile.rhs_evals_per_search"] = total(searches, "rhs_evals") / len(searches)
    m["profile.shot_ms"] = median_ms(i for i in shots if not spans[i].attrs["keep_samples"])
    m["profile.final_shot_ms"] = median_ms(i for i in shots if spans[i].attrs["keep_samples"])
    m["profile.shot_yield"] = sum("raised" not in spans[i].attrs for i in shots) / len(shots)
    m["profile.decay_check_ms"] = median_ms(first("profile.decay_check"))
    m["profile.embed_ms"] = median_ms(first("profile.embed_on_torus"))
    return m


def torus_micro(tracer, phi, cfg) -> dict:
    """Time the public grid/elliptic/evolution calls on the workload's initial state.

    The operation has already taken a first RK4 step from this state, so the
    cold solve, rhs and step below repeat work the program completed once.
    """
    from magma_lab import (
        EllipticProblem, NotConverged, apply_L, field_stats, hs_norm, measure_mass,
        monitor_index, rhs, solve_L_info, spectral_derivative, step_rk4,
    )
    from tracing import install_fft_counters, median_call_s

    def problem(state, **kw):
        a = state ** cfg.n_exponent
        return EllipticProblem(a=a, g=-spectral_derivative(a, state.grid.d - 1), **kw)

    def cg_iterations(p, x0=None) -> int:
        """Iterations of one solve; a solve that fails counts up to the cap."""
        try:
            return solve_L_info(p, x0)[1].iterations
        except NotConverged as exc:
            return exc.iterations

    m = {}
    cold = problem(phi, tol=cfg.elliptic_tol)
    m["elliptic.apply_us"] = 1e6 * median_call_s(lambda: apply_L(cold.a, phi))
    m["elliptic.cg_iters_cold"] = cg_iterations(cold)
    m["elliptic.solve_cold_ms"] = 1e3 * median_call_s(lambda: cg_iterations(cold))
    u = rhs(phi, cfg)  # the cold solution, as the first RK4 stage computes it
    warm = problem(step_rk4(phi, cfg.dt, cfg), tol=cfg.elliptic_tol)
    m["elliptic.cg_iters_warm"] = cg_iterations(warm, u)
    m["elliptic.solve_warm_ms"] = 1e3 * median_call_s(lambda: cg_iterations(warm, u))
    m["evolution.rhs_ms"] = 1e3 * median_call_s(lambda: rhs(phi, cfg))
    m["evolution.step_ms"] = 1e3 * median_call_s(lambda: step_rk4(phi, cfg.dt, cfg))
    s = monitor_index(cfg, phi.grid)
    m["grid.hs_norm_ms"] = 1e3 * median_call_s(lambda: hs_norm(phi - 1.0, s))
    m["evolution.monitor_ms"] = 1e3 * median_call_s(
        lambda: (hs_norm(phi - 1.0, s), field_stats(phi), measure_mass(phi)))

    # Marginal transforms per CG iteration: two solves capped at 2 and 4
    # iterations with an unreachable tolerance differ by exactly two iterations.
    counts = []
    for cap in (2, 4):
        with tracer.installed(install_fft_counters), tracer.span("micro.capped_solve") as sp:
            try:
                solve_L_info(problem(phi, tol=1e-300, max_iter=cap))
            except NotConverged:
                pass
        counts.append(sp.counts.get("fft.calls", 0))
    m["elliptic.transforms_per_cg_iter"] = (counts[1] - counts[0]) / 2
    return m


def profile_micro(params) -> dict:
    from magma_lab import structure_report
    from tracing import median_call_s

    times = [median_call_s(lambda: structure_report(p), budget_s=0.05) for p in params]
    return {"profile.structure_report_ms": 1e3 * statistics.median(times)}


# -- entry point ---------------------------------------------------------------

def describe(name: str, w, n: int, raw: bool = False) -> str:
    """What a generic metric means on this workload, with its count."""
    if raw:
        return {
            "setup_s": f"median of {SETUP_REPEATS} set-ups in wall time",
            "ops_per_s": f"{w.RATE}: {w.UNITS} per second of timed wall time",
            "latency_ms_p50": f"{w.LATENCY}_p50",
            "latency_ms_p75": f"{w.LATENCY}_p75",
            "reference_ms": f"median reference kernel ({w.REFERENCE.__name__})",
        }[name]
    return {
        "setup_s": f"median of {SETUP_REPEATS} set-ups, at small_fft's nominal speed",
        "ops_per_ref": f"{w.UNITS} per reference-kernel time",
        "latency_ref_p50": f"{w.LATENCY} / reference: median over {n} {w.SAMPLE}s",
        "latency_ref_p75": f"{w.LATENCY} / reference: over {n} {w.SAMPLE}s, "
                           f"{n - math.ceil(0.75 * n)} beyond it",
    }.get(name, "")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, help="default: the workload's DEFAULT_SEED")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_package()
    import workloads
    from tracing import Tracer

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}")

    cls = workloads.WORKLOADS[args.workload]
    seed = cls.DEFAULT_SEED if args.seed is None else args.seed
    workdir = ROOT / ".perfbench_runs" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer()
    w = cls(seed, workdir, tracer)
    facts = machine_facts(args.workload, seed, bool(args.trace))
    try:
        if args.trace:
            metrics, raw, results, failures = traced(w, tracer, workdir)
            trace_dir = ROOT / ".perfbench_runs" / "traces"
            trace_dir.mkdir(exist_ok=True)
            tracer.dump(trace_dir / f"{args.workload}-seed{seed}.json", facts)
        else:
            metrics, raw, results, failures = untraced(w, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if set(metrics) != {d["name"] for d in declared}:
        raise SystemExit(f"perfbench: metrics {sorted(metrics)} differ from BENCHMARK.json")
    failed = sum(r.failed for r in results)

    print("facts " + json.dumps(facts))
    for d in declared:
        note = describe(d["name"], w, len(results))
        print(f"{d['name']} = {metrics[d['name']]!r} {d['unit']}" + (f"  # {note}" if note else ""))
    for name, value in raw.items():
        unit = {"setup_s": "s", "ops_per_s": "1/s"}.get(name, "ms")
        print(f"raw {name} = {value!r} {unit}  # {describe(name, w, len(results), raw=True)}")
    print(f"failed_frac = {failed / len(results)!r}  # {failed} failed of {len(results)} attempted")
    for line in failures:
        print("FAILED " + line)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {d["name"]: {"value": metrics[d["name"]], "unit": d["unit"]} for d in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
