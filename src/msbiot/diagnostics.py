"""Relative final-time error quantities and CSV reporting.

Four errors against the fine reference: L2 and energy norms for the
displacement, L2 for the pressure, and a weighted L2 norm for the
velocity.  The velocity weight is kappa/nu applied inside the norm (a
cellwise factor (kappa/nu)^2 in the mass matrix); the conventional
energy weight nu/kappa is available behind a flag.
"""

import csv
from dataclasses import dataclass, asdict

from . import fine_fem
from .fine_fem import energy_norm


@dataclass
class ErrorReport:
    e_l2_u: float
    e_a_u: float
    e_l2_p: float
    e_l2_g: float
    N: int = 0
    n: int = 0
    Ju: int = 0
    Jg: int = 0
    Jt: int = 0
    scheme: str = ""
    field: str = ""

    def values(self):
        return (self.e_l2_u, self.e_a_u, self.e_l2_p, self.e_l2_g)


CSV_HEADER = ["N", "n", "Ju", "Jg", "Jt", "scheme", "field",
              "e_l2_u", "e_a_u", "e_l2_p", "e_l2_g"]


def error_masses(grid, med, velocity_weight="paper"):
    """The mass matrices (Mu, Mp, Mg) of the displacement, pressure and
    weighted velocity L2 norms."""
    if velocity_weight == "paper":
        wg = (med.kappa / med.nu) ** 2
    elif velocity_weight == "energy":
        wg = med.nu / med.kappa
    else:
        raise ValueError(f"unknown velocity weight {velocity_weight!r}")
    return (fine_fem.assemble_vector_mass(grid),
            fine_fem.assemble_pressure_mass(grid),
            fine_fem.assemble_velocity_mass(grid, wg))


def compute_errors(ms_state, fine_state, fine_ops, grid, med,
                   velocity_weight="paper", meta=None, masses=None):
    """Relative errors of a downscaled multiscale state against the fine
    reference state at the same time.  masses: error_masses(grid, med,
    velocity_weight), for a caller that keeps them; built when None."""
    if masses is None:
        masses = error_masses(grid, med, velocity_weight)
    Mu, Mp, Mg = masses
    ref_u = energy_norm(fine_state.u, Mu)
    ref_a = energy_norm(fine_state.u, fine_ops.A)
    ref_p = energy_norm(fine_state.p, Mp)
    ref_g = energy_norm(fine_state.g, Mg)
    if min(ref_u, ref_a, ref_p, ref_g) == 0.0:
        raise ZeroDivisionError("fine reference state has a zero norm; "
                                "scenario is degenerate")
    meta = meta or {}
    return ErrorReport(
        e_l2_u=energy_norm(ms_state.u - fine_state.u, Mu) / ref_u,
        e_a_u=energy_norm(ms_state.u - fine_state.u, fine_ops.A) / ref_a,
        e_l2_p=energy_norm(ms_state.p - fine_state.p, Mp) / ref_p,
        e_l2_g=energy_norm(ms_state.g - fine_state.g, Mg) / ref_g,
        **meta)


def zero_report(meta=None):
    """Report for an identically-zero scenario (all errors zero)."""
    return ErrorReport(0.0, 0.0, 0.0, 0.0, **(meta or {}))


def write_csv(path, reports):
    """One row per report, values at 6 significant digits."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for r in reports:
            d = asdict(r)
            writer.writerow([f"{d[k]:.6g}" if k.startswith("e_") else d[k]
                             for k in CSV_HEADER])
