"""Scenario configuration, orchestration, and the command-line front end.

Config files are flat ``key = value`` text with ``#`` comments; CLI
flags override file keys.  Outputs per run: an errors CSV, field dumps,
a conservation summary, and a frozen copy of the resolved config.
"""

import argparse
import os
import sys
from dataclasses import dataclass, asdict, fields, replace
from functools import cached_property

import numpy as np

from .grid import build_hierarchy
from . import medium as med_mod
from . import fine_fem
from . import time_integrator as ti
from . import ms_system
from . import diagnostics
from .displacement_offline import DisplacementOfflineBasis
from .velocity_offline import VelocityOfflineBasis, assemble_R_g


@dataclass
class ScenarioConfig:
    model: str = "model1"            # model1: no-flux boundary; model2: p=0
    N: int = 10
    n: int = 80                      # CI profile; the full study uses n=200
    J_u: int = 20
    J_g: int = 2
    J_t: int = 10
    T: float = 1.0
    scheme: str = "fixed_stress"
    spectral_problem: int = 1
    field: str = "blobs"             # file path, or generator name
    contrast: float = 1e4
    seed: int = 0
    eta: float = 0.2
    alpha: float = 0.9
    nu: float = 1.0
    outdir: str = "out"
    velocity_weight: str = "paper"

    def __post_init__(self):
        for key, allowed in (("model", ("model1", "model2")),
                             ("scheme", ("fixed_stress", "fully_coupled")),
                             ("velocity_weight", ("paper", "energy"))):
            if getattr(self, key) not in allowed:
                raise ValueError(f"{key} must be one of {', '.join(allowed)}"
                                 f", got {getattr(self, key)!r}")
        if self.spectral_problem not in (1, 2):
            raise ValueError("spectral_problem must be 1 or 2")
        if self.N < 2 or self.n % self.N != 0:
            raise ValueError(f"need N >= 2 and n divisible by N, got "
                             f"N={self.N}, n={self.n}")
        # a coarse edge has n/N snapshots and a corner vertex
        # 2(n/N+1)^2 local displacement DOFs
        m = self.n // self.N
        for key, top in (("J_u", 2 * (m + 1) ** 2), ("J_g", m),
                         ("J_t", np.inf)):
            if not 1 <= getattr(self, key) <= top:
                raise ValueError(f"{key} must lie in [1, {top}] at "
                                 f"n/N={m}, got {getattr(self, key)}")
        # written so that NaN fails every comparison
        for key, ok, rule in (
                ("T", 0 < self.T < np.inf, "must be finite and > 0"),
                ("nu", 0 < self.nu < np.inf, "must be finite and > 0"),
                ("contrast", 1 <= self.contrast < np.inf,
                 "must be finite and >= 1"),
                ("seed", self.seed >= 0, "must be >= 0"),
                ("eta", -1.0 < self.eta < 0.5, "must lie in (-1, 1/2)"),
                ("alpha", 0.0 < self.alpha <= 1.0, "must lie in (0, 1]")):
            if not ok:
                raise ValueError(f"{key} {rule}, got {getattr(self, key)}")


# each key's type (int, float or str), read off its default
_TYPES = {f.name: type(f.default) for f in fields(ScenarioConfig)}
_NUMERIC_KEYS = sorted(k for k, t in _TYPES.items() if t is not str)


def parse_config_file(path):
    """Flat key = value config text; '#' starts a comment.  Returns
    {key: (value, "path:line")}."""
    out = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key = value")
            key, val = (s.strip() for s in line.split("=", 1))
            out[key] = val, f"{path}:{lineno}"
    return out


def _given(**kwargs):
    """The keyword arguments that are not None."""
    return {k: v for k, v in kwargs.items() if v is not None}


def config_from_sources(file_path=None, overrides=None):
    """A config file's keys, overridden by the non-None typed overrides;
    a bad file entry raises ValueError naming its path:line and key."""
    kwargs = {}
    if file_path:
        for k, (v, where) in parse_config_file(file_path).items():
            if k not in ScenarioConfig.__dataclass_fields__:
                raise ValueError(f"{where}: unknown key {k!r}")
            try:
                kwargs[k] = _TYPES[k](v)
            except ValueError:
                raise ValueError(f"{where}: {k} takes a number, "
                                 f"got {v!r}") from None
    kwargs.update(_given(**(overrides or {})))
    return ScenarioConfig(**kwargs)


# ---- scenario data -----------------------------------------------------

def model1_source(grid):
    """+2 in the coarse cell at the origin, -2 in the opposite corner."""
    f = np.zeros(grid.num_fine_cells)
    f[grid.fine_cells_of_coarse_cell(0)] = 2.0
    f[grid.fine_cells_of_coarse_cell(grid.num_coarse_cells - 1)] = -2.0
    return f


def model2_source(grid):
    return np.ones(grid.num_fine_cells)


def initial_pressure(grid):
    """p0 = x y (1-x)(1-y) sampled at fine cell centers."""
    c = grid.fine_cell_center(np.arange(grid.num_fine_cells))
    x, y = c[:, 0], c[:, 1]
    return x * y * (1.0 - x) * (1.0 - y)


def resolve_field(cfg: ScenarioConfig, ncells):
    """Permeability field from a file path or a procedural generator."""
    if os.path.isfile(cfg.field):
        kappa = med_mod.load_field(cfg.field)
        if kappa.size != ncells:
            raise ValueError(f"{cfg.field}: field file has {kappa.size} "
                             f"cells, grid needs {ncells}")
        return kappa, os.path.basename(cfg.field)
    if os.sep in cfg.field or os.path.splitext(cfg.field)[1]:
        raise ValueError(f"field file not found: {cfg.field!r}")
    n = int(round(np.sqrt(ncells)))
    kappa = med_mod.generate_high_contrast(n, cfg.field, cfg.contrast,
                                           cfg.seed)
    return kappa, f"{cfg.field}:{cfg.contrast:g}:{cfg.seed}"


# ---- pipeline ----------------------------------------------------------

class Pipeline:
    """One grid/medium/operator setup with cached fine references,
    offline bases, coarse system and error-norm mass matrices, so
    parameter sweeps only redo the cheap stages."""

    def __init__(self, cfg: ScenarioConfig):
        self.cfg = cfg
        self.grid = build_hierarchy(cfg.N, cfg.n)
        kappa, self.field_id = resolve_field(cfg, self.grid.num_fine_cells)
        self.med = med_mod.build_medium(kappa, cfg.eta, cfg.alpha, cfg.nu)
        self.bspec = fine_fem.BoundarySpec.model1() if cfg.model == "model1" \
            else fine_fem.BoundarySpec.model2()
        self.spaces = fine_fem.build_spaces(self.grid, self.bspec)
        self.ops = fine_fem.assemble_operators(self.spaces, self.med)
        source = model1_source(self.grid) if cfg.model == "model1" \
            else model2_source(self.grid)
        self.load = fine_fem.assemble_load(self.spaces, source)
        self.p0 = initial_pressure(self.grid)
        self._fine_cache = {}
        self._dbasis = None
        self._vbasis = None
        self._space = self._coarse = None
        self._space_J_g = 0
        self._elasticity = ti.ElasticitySlot()

    def fine_reference(self, J_t=None):
        # ScenarioConfig's checks name a J_t out of range
        J_t = replace(self.cfg, **_given(J_t=J_t)).J_t
        if J_t not in self._fine_cache:
            cfg = ti.SchemeConfig(self.cfg.scheme, self.cfg.T, J_t)
            self._fine_cache[J_t] = ti.run(
                cfg, self.ops, self.spaces.free_u, self.spaces.free_g,
                self.load, self.p0)
        return self._fine_cache[J_t]

    @cached_property
    def _error_masses(self):
        return diagnostics.error_masses(self.grid, self.med,
                                        self.cfg.velocity_weight)

    def displacement_basis(self, J_u):
        """The displacement basis, built once with max(J_u, cfg.J_u)
        modes per vertex; a smaller J_u takes its leading columns."""
        if self._dbasis is None:
            self._dbasis = DisplacementOfflineBasis(
                self.grid, self.med, max(J_u, self.cfg.J_u))
        if J_u > self._dbasis.max_modes:
            raise ValueError(f"J_u={J_u} exceeds the "
                             f"{self._dbasis.max_modes} modes per vertex "
                             f"of the displacement basis")
        return self._dbasis

    def velocity_basis(self):
        if self._vbasis is None:
            self._vbasis = VelocityOfflineBasis(self.grid, self.med,
                                                self.cfg.spectral_problem)
        return self._vbasis

    def _coarse_system(self, J_u, J_g):
        """The space of (J_u, J_g), as a mask over the coarse system,
        and the coarse operators.  The system is projected with every
        mode of the displacement basis and max(J_g, cfg.J_g) modes per
        edge; its velocity half again when a larger J_g is asked for."""
        dbasis = self.displacement_basis(J_u)
        if self._space is None:
            self._space_J_g = max(J_g, self.cfg.J_g)
            self._space = ms_system.build_multiscale_space(
                self.grid, self.med, self.bspec, dbasis.max_modes,
                self._space_J_g, dbasis=dbasis, vbasis=self.velocity_basis())
            self._coarse = ms_system.project_operators(self.ops, self._space)
        elif J_g > self._space_J_g:
            R_g, mode_g = assemble_R_g(self.velocity_basis(), self.bspec,
                                       J_g)
            self._space = replace(self._space, R_g=R_g, mode_g=mode_g)
            self._coarse = ms_system.project_operators(
                self.ops, self._space, self._coarse)
            self._space_J_g = J_g
        return self._space.leading(J_u, J_g), self._coarse

    def solve_point(self, J_u=None, J_g=None, J_t=None):
        """Multiscale solve + diagnostics for one parameter point."""
        # ScenarioConfig's checks name a J_u, J_g or J_t out of range
        cfg = replace(self.cfg, **_given(J_u=J_u, J_g=J_g, J_t=J_t))
        J_u, J_g, J_t = cfg.J_u, cfg.J_g, cfg.J_t
        ms, coarse_ops = self._coarse_system(J_u, J_g)
        scheme_cfg = ti.SchemeConfig(cfg.scheme, cfg.T, J_t)
        _, traj_f = ms_system.solve_multiscale(coarse_ops, ms, scheme_cfg,
                                               self.load, self.p0,
                                               self._elasticity)
        fine = self.fine_reference(J_t)
        meta = {"N": cfg.N, "n": cfg.n, "Ju": J_u, "Jg": J_g, "Jt": J_t,
                "scheme": cfg.scheme, "field": self.field_id}
        ref = fine.final
        if max(np.abs(ref.u).max(), np.abs(ref.g).max(),
               np.abs(ref.p).max()) == 0.0:
            report = diagnostics.zero_report(meta)
        else:
            report = diagnostics.compute_errors(
                traj_f.final, ref, self.ops, self.grid, self.med,
                cfg.velocity_weight, meta, self._error_masses)
        max_res, _ = ms_system.conservation_report(
            self.ops, ms.R_p, traj_f, self.load, scheme_cfg.tau, cfg.scheme)
        return report, max_res, traj_f


# ---- file outputs ------------------------------------------------------

def export_field(grid, kind, vector, path):
    """Write a state component in the field file format.

    kind: 'pressure' (per cell), 'displacement_x'/'displacement_y'
    (per node), or 'velocity_magnitude' (cell average of the face field).
    """
    n = grid.n
    if kind == "pressure":
        med_mod.save_field(path, vector, rows=n, cols=n)
    elif kind in ("displacement_x", "displacement_y"):
        comp = vector[0::2] if kind == "displacement_x" else vector[1::2]
        med_mod.save_field(path, comp, rows=n + 1, cols=n + 1)
    elif kind == "velocity_magnitude":
        e = grid.cell_edges
        gx = 0.5 * (vector[e[:, 0]] + vector[e[:, 1]])
        gy = 0.5 * (vector[e[:, 2]] + vector[e[:, 3]])
        med_mod.save_field(path, np.hypot(gx, gy), rows=n, cols=n)
    else:
        raise ValueError(f"unknown export kind {kind!r}")


def _write_outputs(outdir, cfg, reports, max_res, pipeline, traj_f):
    os.makedirs(outdir, exist_ok=True)
    diagnostics.write_csv(os.path.join(outdir, "errors.csv"), reports)
    with open(os.path.join(outdir, "config.txt"), "w") as fh:
        for k, v in asdict(cfg).items():
            fh.write(f"{k} = {v}\n")
    with open(os.path.join(outdir, "conservation.txt"), "w") as fh:
        fh.write(f"max_residual = {max_res:.6e}\n")
    final = traj_f.final
    for kind, vector in (("pressure", final.p), ("displacement_x", final.u),
                         ("displacement_y", final.u),
                         ("velocity_magnitude", final.g)):
        export_field(pipeline.grid, kind, vector,
                     os.path.join(outdir, f"{kind}.txt"))


def run_scenario(cfg: ScenarioConfig, check=False):
    """Full pipeline for one configuration; returns (report, max_residual)."""
    try:
        pipeline = Pipeline(cfg)
    except Exception as exc:
        raise RuntimeError(f"[setup] {exc}") from exc
    try:
        report, max_res, traj_f = pipeline.solve_point()
    except Exception as exc:
        raise RuntimeError(f"[solve] {exc}") from exc
    try:
        _write_outputs(cfg.outdir, cfg, [report], max_res, pipeline, traj_f)
    except Exception as exc:
        raise RuntimeError(f"[output] {exc}") from exc
    ok = True
    if check:
        tol = 1e-9 * (np.abs(pipeline.load).max() + 1.0)
        ok = max_res <= tol
    return report, max_res, ok


def run_sweep(cfg: ScenarioConfig, key, values):
    """Sweep one numeric parameter; offline stages are reused when only
    basis counts or the step count vary."""
    # every value is checked before the first pipeline is built
    cfgs = [replace(cfg, **{key: v},
                    outdir=os.path.join(cfg.outdir, f"{key}_{v}"))
            for v in values]
    reports = []
    if key in ("J_u", "J_g", "J_t"):
        if key in ("J_u", "J_g"):
            # the pipeline builds the basis and projects at the largest
            cfg = replace(cfg, **{key: max(values)})
        pipeline = Pipeline(cfg)
        for v in values:
            report, max_res, _ = pipeline.solve_point(**{key: v})
            reports.append((v, report, max_res))
    else:
        for v, c in zip(values, cfgs):
            report, max_res, _ = run_scenario(c)
            reports.append((v, report, max_res))
    os.makedirs(cfg.outdir, exist_ok=True)
    diagnostics.write_csv(os.path.join(cfg.outdir, "sweep.csv"),
                          [r for _, r, _ in reports])
    return reports


# ---- argparse front end ------------------------------------------------

def _add_common(p):
    p.add_argument("--config", help="flat key=value config file")
    for key, typ in _TYPES.items():
        p.add_argument(f"--{key}", type=typ)


def _check_fields(parser, cfgs):
    """Resolve each config's field as Pipeline will, so that a bad field
    file fails as a bad config does, naming its path, before any work."""
    for cfg in cfgs:
        try:
            resolve_field(cfg, cfg.n ** 2)
        except (OSError, ValueError) as exc:
            parser.error(str(exc))


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="msbiot",
        description="Mass-conservative multiscale poroelasticity solver")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run one scenario")
    _add_common(p_run)
    p_run.add_argument("--check", action="store_true",
                       help="exit nonzero if the conservation residual "
                       "exceeds its tolerance")
    p_sweep = sub.add_parser("sweep", help="sweep one parameter")
    _add_common(p_sweep)
    p_sweep.add_argument("--vary", required=True,
                         help="key=v1,v2,... e.g. J_u=4,8,12")
    args = parser.parse_args(argv)

    overrides = {k: getattr(args, k)
                 for k in ScenarioConfig.__dataclass_fields__
                 if hasattr(args, k)}
    try:
        cfg = config_from_sources(args.config, overrides)
    except (OSError, ValueError) as exc:
        parser.error(str(exc))

    if args.command == "run":
        _check_fields(parser, [cfg])
        report, max_res, ok = run_scenario(cfg, check=args.check)
        print(f"errors: u_l2={report.e_l2_u:.4g} u_a={report.e_a_u:.4g} "
              f"p_l2={report.e_l2_p:.4g} g_l2={report.e_l2_g:.4g}")
        print(f"max conservation residual: {max_res:.3e}")
        return 0 if ok else 1

    key, _, vals = args.vary.partition("=")
    if key not in _NUMERIC_KEYS or not vals:
        parser.error(f"--vary expects key=v1,v2,... with a numeric key, one "
                     f"of {', '.join(_NUMERIC_KEYS)}; got {args.vary!r}")
    try:
        values = [_TYPES[key](v) for v in vals.split(",")]
    except ValueError:
        parser.error(f"--vary: {key} takes numbers, got {vals!r}")
    try:
        cfgs = [replace(cfg, **{key: v}) for v in values]
    except ValueError as exc:
        parser.error(f"--vary: {exc}")
    _check_fields(parser, cfgs)
    for v, report, max_res in run_sweep(cfg, key, values):
        print(f"{key}={v}: u_l2={report.e_l2_u:.4g} u_a={report.e_a_u:.4g} "
              f"p_l2={report.e_l2_p:.4g} g_l2={report.e_l2_g:.4g} "
              f"cons={max_res:.2e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
