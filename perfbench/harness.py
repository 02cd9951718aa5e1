"""Workloads, measurement and correctness gates of the msbiot benchmark.

Every workload is a closed loop in one process: one scenario
``Pipeline``, then its solve points one after another, each started
when the previous one has finished, as ``msbiot run`` and ``msbiot
sweep`` run them.  Before a point is solved the harness requests its
displacement basis, velocity basis and fine reference in the order
``Pipeline.solve_point`` requests them.  That only attributes time to
stages: the same objects are built, and ``solve_point`` then finds them
in the pipeline's cache.

A run first warms up on a small copy of its workload, untimed.  Every
time it reports is a median of wall times.

Importing this module needs ``msbiot`` importable; ``run.py`` puts the
checkout's ``src`` first on ``sys.path`` and pins BLAS threads before.
"""

import contextlib
import csv
import json
import math
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field, replace

import numpy as np
import scipy

import msbiot
from msbiot import (cli, diagnostics, displacement_offline, fine_fem, grid,
                    medium, ms_system, time_integrator, velocity_offline)

from spans import NullTracer, Tracer


@dataclass(frozen=True)
class Workload:
    config: dict        # ScenarioConfig fields that differ from the defaults
    points: tuple       # (J_u, J_g) solve points, in the order they run
    sweep: bool         # outputs as `msbiot sweep` (sweep.csv) or `msbiot run`


DEFAULT_POINT = (20, 2)

# Why these three: see BENCHMARK.json.  `ci` is the dense-eigh offline
# path at the CLI default size; `paper` is n=200, where the displacement
# eigenproblems take the sparse eigsh path and the fine reference and
# memory dominate; `sweep` exercises the monolithic scheme, spectral
# problem 2, Gamma2 masks and one online solve per point, and rebuilds
# the displacement basis as its ascending J_u order demands.  The sweep
# runs at n=40, where one pass takes about 9 s instead of 34 s at n=80,
# so that a run holds several passes and its medians are steady.
WORKLOADS = {
    "ci": Workload({}, (DEFAULT_POINT,), sweep=False),
    "paper": Workload({"n": 200}, (DEFAULT_POINT,), sweep=False),
    "sweep": Workload(
        {"model": "model2", "scheme": "fully_coupled", "spectral_problem": 2,
         "n": 40},
        ((4, 2), (12, 2), DEFAULT_POINT, (20, 1), (20, 3)), sweep=True),
}

# Self-check scale: every workload path in seconds.
SMALL = {"N": 4, "n": 16}

# Errors `msbiot run` / `msbiot sweep --vary J_u=4,12,20` and `--vary
# J_g=1,3` give on seed 0 at full scale, as
# (e_l2_u, e_a_u, e_l2_p, e_l2_g) per solve point.  A run on seed 0 must
# reproduce them to REFERENCE_RTOL.
REFERENCE_ERRORS = {
    "ci": {DEFAULT_POINT: (0.04067340268033252, 0.26312064835666354,
                           0.02870544329741293, 0.089490754013398)},
    "paper": {DEFAULT_POINT: (0.04304945896928221, 0.26903557143711293,
                              0.02885267500471073, 0.08896530133946097)},
    "sweep": {
        (4, 2): (0.3016443398040505, 0.551477192321479,
                 0.16821454648368747, 0.5013496461649846),
        (12, 2): (0.10596515167800137, 0.39356437639621655,
                  0.16821454661165428, 0.5013496473965815),
        (20, 2): (0.10175376769710787, 0.38254484975343694,
                  0.1682145466262702, 0.5013496475414321),
        (20, 1): (33.35024074690613, 39.74841148835592,
                  51.41048318091208, 1.3373459710724278),
        (20, 3): (0.10424362832276214, 0.38234284484019826,
                  0.16812314524121083, 0.14995632955552693)},
}
REFERENCE_RTOL = 1e-10
# Repeated passes in one process, and the traced pass, must agree with
# the first untraced pass to this relative tolerance.
REPEAT_RTOL = 1e-12
# Repeat rounds per pass and set-ups timed per round (see repeat_round).
REPEAT_ROUNDS = 1
SETUP_PER_ROUND = 8

END_TO_END = (
    ("total_s", "s"), ("setup_s", "s"), ("offline_s", "s"), ("fine_s", "s"),
    ("online_s", "s"), ("online_fine_ratio", "1"), ("peak_rss_mb", "MB"),
)

# Per-layer time metrics: the summed duration of the named spans over
# one pass (metrics of time_integrator are split by fine/coarse below).
LAYER_TIMES = {
    "grid.build_hierarchy_s": ("grid.build_hierarchy",),
    "medium.field_s": ("medium.generate_high_contrast", "medium.load_field"),
    "medium.build_medium_s": ("medium.build_medium",),
    "fine_fem.build_spaces_s": ("fine_fem.build_spaces",),
    "fine_fem.assemble_operators_s": ("fine_fem.assemble_operators",),
    "fine_fem.assemble_load_s": ("fine_fem.assemble_load",),
    "velocity_offline.snapshots_s": ("velocity_offline.build_snapshot_space",),
    "velocity_offline.spectral_s": ("velocity_offline.spectral_reduce_1",
                                    "velocity_offline.spectral_reduce_2"),
    "velocity_offline.assemble_R_g_s": ("velocity_offline.assemble_R_g",),
    "displacement_offline.eig_s": ("displacement_offline.local_displacement_eig",),
    "displacement_offline.pou_s": ("displacement_offline.build_pou",),
    "displacement_offline.multiply_s": ("displacement_offline.multiply_basis",),
    "displacement_offline.assemble_R_u_s": ("displacement_offline.assemble_R_u",),
    "time_integrator.fine.factor_s": ("time_integrator.fine.make_stepper",),
    "time_integrator.fine.initialize_s": ("time_integrator.fine.initialize",),
    "time_integrator.coarse.factor_s": ("time_integrator.coarse.make_stepper",),
    "ms_system.project_operators_s": ("ms_system.project_operators",),
    "ms_system.downscale_s": ("ms_system.downscale",),
    "ms_system.conservation_report_s": ("ms_system.conservation_report",),
    "diagnostics.compute_errors_s": ("diagnostics.compute_errors",),
    "cli.outputs_s": ("cli.outputs",),
}

# Per-layer count metrics: (span name, count key) summed over one pass.
LAYER_COUNTS = {
    "displacement_offline.local_dofs":
        ("displacement_offline.local_displacement_eig", "local_dofs"),
    "velocity_offline.snapshot_count":
        ("velocity_offline.build_snapshot_space", "snapshot_count"),
    "time_integrator.fine.fill_nnz":
        ("time_integrator.fine.make_stepper", "fill_nnz"),
    "ms_system.coarse_dofs": ("ms_system.build_multiscale_space", "coarse_dofs"),
    "ms_system.coarse_nnz": ("ms_system.project_operators", "coarse_nnz"),
    "ms_system.R_nnz": ("ms_system.build_multiscale_space", "R_nnz"),
    "fine_fem.operator_nnz": ("fine_fem.assemble_operators", "operator_nnz"),
}

PER_LAYER = (
    tuple((name, "s") for name in LAYER_TIMES)
    + tuple((name, "count") for name in LAYER_COUNTS)
    + (("time_integrator.fine.step_s", "s"),
       ("time_integrator.coarse.step_s", "s"),
       ("displacement_offline.builds", "count"),
       ("velocity_offline.kept_ratio", "1"),
       ("trace.coverage", "1"),
       ("trace.overhead_s", "s"))
)


@dataclass
class Pass:
    """What one pass over a workload measured."""
    attempted: int = 0
    failed: int = 0
    total_s: float = None
    offline_s: float = 0.0
    setup_s: list = field(default_factory=list)
    fine_s: list = field(default_factory=list)     # one sum of builds per round
    fine_builds: int = 0
    online_s: dict = field(default_factory=lambda: defaultdict(list))
    longest_round_s: float = 0.0
    displacement_builds: int = 0
    errors: dict = field(default_factory=dict)     # point -> four errors
    peak_rss_mb: float = None                      # at the end of the user path
    root: object = None                            # traced: the pass's span


def scenario(workload, seed, small=False):
    wl = WORKLOADS[workload]
    cfg = cli.ScenarioConfig(seed=seed, **{**wl.config, **(SMALL if small else {})})
    # as run_sweep does for a J_u sweep: the pipeline config carries the max
    return wl, replace(cfg, J_u=max(J_u for J_u, _ in wl.points))


def run_pass(wl, cfg, tracer, problems, rounds=0):
    """The user path once, then ``rounds`` repeat rounds on its pipeline.

    The user path sets up, solves every point and writes the outputs,
    timing each stage.  Returns the Pass and the user path's pipeline
    (None when set-up raised); the caller drops the pipeline before the
    next pass, so peak RSS stays that of one user path.
    """
    out = Pass()
    pipe = user_path(wl, cfg, tracer, problems, out)
    out.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    for _ in range(rounds):
        if pipe is None or not repeat_round(wl, cfg, pipe, problems, out):
            break
    return out, pipe


def repeat_round(wl, cfg, pipe, problems, out):
    """Re-time the short stages, too short for one sample to be steady:
    SETUP_PER_ROUND fresh set-ups, the last one's fine reference, and
    every point solved again on ``pipe``, whose bases are cached.
    False when a set-up or fine reference raised."""
    start = time.perf_counter()
    try:
        for _ in range(SETUP_PER_ROUND):
            t = time.perf_counter()
            fresh = cli.Pipeline(cfg)
            out.setup_s.append(time.perf_counter() - t)
        t = time.perf_counter()
        fresh.fine_reference(cfg.J_t)
        out.fine_s.append(time.perf_counter() - t)
        del fresh
    except Exception:
        traceback.print_exc()
        problems.append("a repeated set-up or fine reference raised")
        return False
    for J_u, J_g in wl.points:
        solve_point(pipe, J_u, J_g, out)
    out.longest_round_s = max(out.longest_round_s,
                              time.perf_counter() - start)
    return True


def warm_up(workload, seed):
    """Untimed: every workload path once at the self-check size, so the
    first timed pass does not pay for first calls into the libraries."""
    wl, cfg = scenario(workload, seed, small=True)
    try:
        pipe = cli.Pipeline(cfg)
        for J_u, J_g in wl.points:
            pipe.solve_point(J_u=J_u, J_g=J_g)
    except Exception:
        traceback.print_exc()   # the timed passes will count the failure


def user_path(wl, cfg, tracer, problems, out):
    """What `msbiot run` / `msbiot sweep` does; returns the pipeline,
    or None when set-up raised."""
    with tracer.span("total") as out.root:
        t0 = time.perf_counter()
        try:
            with tracer.span("cli.Pipeline"):
                pipe = cli.Pipeline(cfg)
        except Exception:
            traceback.print_exc()
            out.attempted = out.failed = len(wl.points)
            return None
        out.setup_s.append(time.perf_counter() - t0)

        solved = []
        dbasis = vbasis = None
        fine_ids = set()
        fine_s = 0.0
        for J_u, J_g in wl.points:
            try:
                t = time.perf_counter()
                with tracer.span("cli.Pipeline.displacement_basis"):
                    d = pipe.displacement_basis(J_u)
                if d is not dbasis:
                    dbasis = d
                    out.displacement_builds += 1
                    out.offline_s += time.perf_counter() - t
                t = time.perf_counter()
                with tracer.span("cli.Pipeline.velocity_basis"):
                    v = pipe.velocity_basis()
                if v is not vbasis:
                    vbasis = v
                    out.offline_s += time.perf_counter() - t
                t = time.perf_counter()
                with tracer.span("cli.Pipeline.fine_reference"):
                    fine = pipe.fine_reference(cfg.J_t)
                if id(fine) not in fine_ids:
                    fine_ids.add(id(fine))
                    out.fine_builds += 1
                    fine_s += time.perf_counter() - t
            except Exception:
                traceback.print_exc()
                out.attempted += 1
                out.failed += 1
                continue
            solved.append(solve_point(pipe, J_u, J_g, out, tracer))
        out.fine_s.append(fine_s)

        solved = [s for s in solved if s is not None]
        if len(solved) == len(wl.points):
            with tracer.span("cli.outputs"):
                write_outputs(wl, cfg, pipe, solved, problems)
        out.total_s = time.perf_counter() - t0
    return pipe


def solve_point(pipe, J_u, J_g, out, tracer=NullTracer()):
    """One operation: solve, time, gate.  Returns (report, max_res,
    trajectory), or None when the point failed."""
    out.attempted += 1
    try:
        t = time.perf_counter()
        with tracer.span("cli.Pipeline.solve_point"):
            report, max_res, traj = pipe.solve_point(J_u=J_u, J_g=J_g)
        out.online_s[J_u, J_g].append(time.perf_counter() - t)
    except Exception:
        traceback.print_exc()
        out.failed += 1
        return None
    problem = check_point(pipe, report, max_res, traj)
    if problem:
        print(f"solve point J_u={J_u} J_g={J_g}: {problem}", file=sys.stderr)
        out.failed += 1
        return None
    out.errors.setdefault((J_u, J_g), report.values())
    return report, max_res, traj


def check_point(pipe, report, max_res, traj):
    """The `--check` conservation tolerance plus finiteness."""
    final = traj.final
    if not all(np.all(np.isfinite(x)) for x in (final.u, final.g, final.p)):
        return "non-finite fields"
    if not all(math.isfinite(e) for e in report.values()):
        return f"non-finite errors {report.values()}"
    tol = 1e-9 * (np.abs(pipe.load).max() + 1.0)
    if not max_res <= tol:
        return f"conservation residual {max_res:.3e} > {tol:.3e}"
    return None


def write_outputs(wl, cfg, pipe, solved, problems):
    """Write what the command writes and read its error table back."""
    try:
        if wl.sweep:
            table = os.path.join(cfg.outdir, "sweep.csv")
            diagnostics.write_csv(table, [r for r, _, _ in solved])
        else:
            report, max_res, traj = solved[0]
            cli._write_outputs(cfg.outdir, cfg, [report], max_res, pipe, traj)
            table = os.path.join(cfg.outdir, "errors.csv")
        with open(table, newline="") as fh:
            rows = list(csv.DictReader(fh))
    except Exception:
        traceback.print_exc()
        problems.append("writing outputs raised")
        return
    names = ("e_l2_u", "e_a_u", "e_l2_p", "e_l2_g")
    written = [tuple(float(row[k]) for k in names) for row in rows]
    expected = [r.values() for r, _, _ in solved]
    if len(written) != len(expected) or not all(
            math.isclose(a, b, rel_tol=1e-5)
            for w, e in zip(written, expected) for a, b in zip(w, e)):
        problems.append(f"{os.path.basename(table)} does not hold the "
                        f"errors solved: {written} vs {expected}")


def compare_errors(errors, reference, rtol, what, problems):
    for point, ref in reference.items():
        got = errors.get(point)
        if got is None:
            continue        # the point failed and is counted as such
        if not all(abs(a - b) <= rtol * abs(b) for a, b in zip(got, ref)):
            problems.append(f"{what} at J_u,J_g={point}: errors {got} "
                            f"differ from {ref} by more than {rtol:g}")


def install_probes(tracer):
    """Wrap the public functions of every layer, with counts read off
    the objects they return."""
    def count(key, fn):
        def hook(span, result):
            span.counts[key] = fn(result)
        return hook

    def nnz(obj):
        return sum(m.nnz for m in vars(obj).values() if hasattr(m, "nnz"))

    def space_counts(span, ms):
        span.counts["coarse_dofs"] = sum(ms.dims.values())
        span.counts["R_nnz"] = nnz(ms)

    def stepper_counts(span, stepper):
        # SuperLU's nnz: entries stored for L and U, supernode padding
        # included, read without copying the factors out
        lus = [getattr(s, "lu", None) for s in vars(stepper).values()]
        lus = [lu for lu in lus if hasattr(lu, "perm_c")]
        if lus:
            span.counts["fill_nnz"] = sum(lu.nnz for lu in lus)
        stepper.step = tracer.wrap_callable("time_integrator.step",
                                            stepper.step)

    w = tracer.wrap
    w(grid, "build_hierarchy")
    w(medium, "generate_high_contrast")
    w(medium, "load_field")
    w(medium, "build_medium")
    w(fine_fem, "build_spaces")
    w(fine_fem, "assemble_operators", count("operator_nnz", nnz))
    w(fine_fem, "assemble_load")
    w(velocity_offline, "build_snapshot_space", count(
        "snapshot_count", lambda snaps: sum(s.vel.shape[1] for s in snaps)))
    w(velocity_offline, "spectral_reduce_1")
    w(velocity_offline, "spectral_reduce_2")
    w(velocity_offline, "assemble_R_g",
      count("kept_modes", lambda out: out[0].shape[1]))
    w(displacement_offline, "local_displacement_eig",
      count("local_dofs", lambda out: out[1].shape[0]))
    w(displacement_offline, "build_pou")
    w(displacement_offline, "multiply_basis")
    w(displacement_offline, "assemble_R_u")
    w(ms_system, "build_multiscale_space", space_counts)
    w(ms_system, "solve_multiscale")
    w(ms_system, "project_operators", count("coarse_nnz", nnz))
    w(ms_system, "downscale")
    w(ms_system, "conservation_report")
    w(time_integrator, "run")
    w(time_integrator, "make_stepper", stepper_counts)
    w(time_integrator, "initialize")
    w(diagnostics, "compute_errors")
    w(diagnostics, "write_csv")
    w(cli, "export_field")


def layer_metrics(tracer, traced):
    """Per-layer metrics of the traced pass; None where the program has
    no such entry point or never called it."""
    by_name = defaultdict(list)
    for s in tracer.under(traced.root):
        name = s.name
        if name.startswith("time_integrator."):
            coarse = any(a.name == "ms_system.solve_multiscale"
                         for a in tracer.ancestors(s))
            name = name.replace("time_integrator.", "time_integrator."
                                + ("coarse." if coarse else "fine."), 1)
        by_name[name].append(s)

    def summed(values):
        return sum(values) if values else None

    m = {}
    for metric, names in LAYER_TIMES.items():
        m[metric] = summed([s.duration for n in names for s in by_name[n]])
    for metric, (name, key) in LAYER_COUNTS.items():
        m[metric] = summed([s.counts[key] for s in by_name[name]
                            if key in s.counts])
    for scope in ("fine", "coarse"):
        steps = [s.duration for s in by_name[f"time_integrator.{scope}.step"]]
        m[f"time_integrator.{scope}.step_s"] = (
            statistics.median(steps) if steps else None)
    m["displacement_offline.builds"] = traced.displacement_builds
    kept = summed([s.counts["kept_modes"]
                   for s in by_name["velocity_offline.assemble_R_g"]])
    snaps = m["velocity_offline.snapshot_count"]
    calls = len(by_name["velocity_offline.assemble_R_g"])
    m["velocity_offline.kept_ratio"] = (
        kept / (snaps * calls) if kept is not None and snaps else None)
    m["trace.coverage"] = tracer.coverage(traced.root)
    return m


def end_to_end_metrics(passes):
    """Medians over passes (total, offline) or over every sample, and
    online_s as the median over solve points of each point's median."""
    fine = statistics.median(x for p in passes for x in p.fine_s)
    online = statistics.median(
        statistics.median(x for p in passes for x in p.online_s[point])
        for point in passes[0].online_s)
    return {
        "total_s": statistics.median(p.total_s for p in passes),
        "setup_s": statistics.median(x for p in passes for x in p.setup_s),
        "offline_s": statistics.median(p.offline_s for p in passes),
        "fine_s": fine,
        "online_s": online,
        "online_fine_ratio": online / (fine / passes[0].fine_builds),
        "peak_rss_mb": passes[0].peak_rss_mb,
    }


def environment(root, seed):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "msbiot": msbiot.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "commit": git_commit(root),
        "seed": seed,
        **{k: os.environ.get(k) for k in
           ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MSBIOT_WORKERS")},
    }


def git_commit(root):
    """HEAD's commit read from .git, or None outside a git checkout."""
    gitdir = os.path.join(root, ".git")
    try:
        with open(os.path.join(gitdir, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(gitdir, ref)) as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(gitdir, "packed-refs")) as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return None


def measure(workload, seed, seconds, trace, root, small=False):
    """Run one benchmark invocation; returns the result object.

    Untraced: passes repeat while the next one is expected to end within
    ``seconds`` (at least one); then repeat rounds on the last pass's
    pipeline fill the time left.  Metrics are medians over them.
    Traced: one untraced pass, then one traced pass for the per-layer
    metrics; their difference in total_s is the tracing overhead.
    """
    wl, cfg = scenario(workload, seed, small)
    print("env", json.dumps(environment(root, seed)))
    problems = []
    scratch = os.path.join(root, ".perfbench_out")
    os.makedirs(scratch, exist_ok=True)
    outdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=scratch)
    cfg = replace(cfg, outdir=outdir)
    try:
        warm_up(workload, seed)
        passes = []
        start = time.perf_counter()
        while True:
            p, pipe = run_pass(wl, cfg, NullTracer(), problems,
                               0 if trace else REPEAT_ROUNDS)
            passes.append(p)
            elapsed = time.perf_counter() - start
            if trace or elapsed * (1 + 1 / len(passes)) > seconds:
                break
            del pipe
        last = passes[-1]
        while not trace and pipe is not None and last.longest_round_s and (
                time.perf_counter() - start + 1.5 * last.longest_round_s
                < seconds):
            if not repeat_round(wl, cfg, pipe, problems, last):
                break
        del pipe
        if trace:
            tracer = Tracer()
            install_probes(tracer)
            try:
                traced, pipe = run_pass(wl, cfg, tracer, problems)
                del pipe
            finally:
                tracer.restore()
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
        with contextlib.suppress(OSError):     # still used by another run
            os.rmdir(scratch)

    first = passes[0]
    for k, p in enumerate(passes[1:] + ([traced] if trace else []), 1):
        compare_errors(p.errors, first.errors, REPEAT_RTOL,
                       "traced pass" if trace else f"pass {k}", problems)
    if not small and seed == 0 and workload in REFERENCE_ERRORS:
        compare_errors(first.errors, REFERENCE_ERRORS[workload],
                       REFERENCE_RTOL, "seed-0 reference", problems)
    runs = passes + ([traced] if trace else [])
    attempted = sum(p.attempted for p in runs)
    failed = sum(p.failed for p in runs)

    for point, errs in first.errors.items():
        print(f"J_u={point[0]} J_g={point[1]}: e_l2_u={errs[0]:.6e} "
              f"e_a_u={errs[1]:.6e} e_l2_p={errs[2]:.6e} e_l2_g={errs[3]:.6e}")
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)

    units = PER_LAYER if trace else END_TO_END
    if failed:
        metrics = {}        # a failed point leaves the timings incomplete
    elif trace:
        metrics = layer_metrics(tracer, traced)
        metrics["trace.overhead_s"] = traced.total_s - first.total_s
        print_spans(tracer, traced)
    else:
        metrics = end_to_end_metrics(passes)
        for k, p in enumerate(passes):
            print(f"pass {k}: total_s {p.total_s:.4f} offline_s "
                  f"{p.offline_s:.4f}; samples (s): setup "
                  f"{' '.join(f'{x:.4f}' for x in p.setup_s)}; fine "
                  f"{' '.join(f'{x:.4f}' for x in p.fine_s)}; online "
                  + ", ".join(f"{J_u},{J_g}: " + " ".join(
                      f"{x:.4f}" for x in xs)
                      for (J_u, J_g), xs in p.online_s.items()))
    return {"correct": failed == 0 and not problems,
            "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": metrics.get(name), "unit": unit}
                        for name, unit in units}}


def print_spans(tracer, traced):
    print(f"{'span':52s} {'calls':>6s} {'incl s':>9s} {'self s':>9s}")
    rows = tracer.self_times(tracer.under(traced.root))
    for name, (calls, incl, own) in sorted(rows.items(),
                                           key=lambda kv: -kv[1][2]):
        print(f"{name:52s} {calls:6d} {incl:9.4f} {own:9.4f}")
    if tracer.missing:
        print("absent entry points:", ", ".join(sorted(tracer.missing)))
