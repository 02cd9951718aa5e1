"""Heterogeneous poroelastic material data on the fine grid.

Material coefficients are piecewise constant per fine cell, stored as
flat arrays of length n*n in row-major order (row 0 = bottom).
"""

import numpy as np


class PoroelasticMedium:
    """Per-fine-cell material record for the coupled flow/elasticity model.

    kappa, E, lam, mu, M are arrays of length n*n; alpha, nu, eta are
    global scalars.  lam/mu are derived from (E, eta).
    """

    def __init__(self, kappa, E, eta, M, alpha, nu):
        kappa = np.asarray(kappa, dtype=float)
        E = np.asarray(E, dtype=float)
        M = np.asarray(M, dtype=float)
        if not (kappa.shape == E.shape == M.shape):
            raise ValueError("kappa, E, M must have identical shapes")
        if np.any(kappa <= 0) or np.any(E <= 0) or np.any(M <= 0):
            raise ValueError("kappa, E, M must be strictly positive")
        self.kappa = kappa
        self.E = E
        self.eta = eta
        self.M = M
        self.alpha = alpha
        self.nu = nu
        self.lam, self.mu = derive_lame(E, eta)

    @property
    def ncells(self):
        return self.kappa.size


def derive_lame(E, eta):
    """Lame coefficients (lambda, mu) from Young's modulus and Poisson ratio."""
    E = np.asarray(E, dtype=float)
    if np.any(E <= 0):
        raise ValueError("Young's modulus must be positive")
    if not -1.0 < eta < 0.5:
        raise ValueError(f"Poisson ratio must lie in (-1, 1/2), got {eta}")
    lam = eta * E / ((1.0 + eta) * (1.0 - 2.0 * eta))
    mu = E / (2.0 * (1.0 + eta))
    return lam, mu


def build_medium(kappa_field, eta=0.2, alpha=0.9, nu=1.0):
    """Assemble a medium with E = kappa cellwise.

    The Biot modulus is 1 in the background (kappa at its minimum value)
    and 10 in the inclusion region.
    """
    kappa_field = np.asarray(kappa_field, dtype=float)
    M_field = np.where(kappa_field > kappa_field.min(), 10.0, 1.0)
    return PoroelasticMedium(kappa_field, kappa_field.copy(), eta,
                             M_field, alpha, nu)


# ---- field file I/O ----------------------------------------------------
# Format: line 1 = "<rows> <cols>"; then rows*cols whitespace-separated
# values, row-major, row 0 = bottom.  Writer emits 17 significant digits.

def load_field(path, positive=True):
    """Read a per-cell scalar field; returns a flat row-major array."""
    with open(path) as fh:
        header = fh.readline().split()
        try:
            # a header of other than two tokens fails the unpacking
            rows, cols = map(int, header)
        except ValueError:
            raise ValueError(f"{path}: malformed header {header!r}") from None
        try:
            values = np.fromstring(fh.read(), sep=" ")
        except ValueError:
            raise ValueError(f"{path}: values must be numbers") from None
    if values.size != rows * cols:
        raise ValueError(
            f"{path}: expected {rows * cols} values, found {values.size}")
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{path}: field must be finite")
    if positive and np.any(values <= 0):
        raise ValueError(f"{path}: field must be strictly positive")
    return values


def save_field(path, values, rows=None, cols=None):
    """Write a flat array in the field file format (17 significant digits)."""
    values = np.asarray(values, dtype=float).ravel()
    if rows is None or cols is None:
        side = int(round(np.sqrt(values.size)))
        if side * side == values.size:
            rows = cols = side
        else:
            rows, cols = values.size, 1
    if rows * cols != values.size:
        raise ValueError("rows*cols does not match value count")
    with open(path, "w") as fh:
        fh.write(f"{rows} {cols}\n")
        for r in range(rows):
            row = values[r * cols:(r + 1) * cols]
            fh.write(" ".join(f"{v:.17g}" for v in row) + "\n")


# ---- procedural high-contrast generators -------------------------------

# Reference inclusion geometry for the 'blobs' pattern: rectangles
# (x0, x1, y0, y1) in unit-square coordinates, each spanning one to two
# coarse blocks at practical coarse resolutions.
_BLOB_RECTS = (
    (0.443, 0.578, 0.798, 1.000),
    (0.269, 0.472, 0.351, 0.511),
    (0.447, 0.642, 0.000, 0.162),
    (0.272, 0.422, 0.677, 0.842),
    (0.100, 0.241, 0.340, 0.486),
    (0.641, 0.810, 0.153, 0.371),
    (0.828, 1.000, 0.628, 0.776),
    (0.109, 0.280, 0.857, 0.989),
)


def generate_high_contrast(n, pattern="blobs", contrast=1e4, seed=0):
    """Binary high-contrast field: background 1, inclusions = contrast.

    'blobs' places a fixed set of rectangular patches (seed 0 gives the
    reference geometry; other seeds jitter the patch positions);
    'channels' lays down long horizontal/vertical streaks plus an
    L-shaped feature.  Inclusions span multiple coarse blocks for any
    N <= 25.  Deterministic per seed.
    """
    if contrast < 1:
        raise ValueError("contrast must be >= 1")
    rng = np.random.default_rng(seed)
    mask = np.zeros((n, n), dtype=bool)

    if pattern == "blobs":
        for x0, x1, y0, y1 in _BLOB_RECTS:
            if seed != 0:
                dx, dy = rng.uniform(-0.05, 0.05, size=2)
                x0, x1 = np.clip([x0 + dx, x1 + dx], 0.0, 1.0)
                y0, y1 = np.clip([y0 + dy, y1 + dy], 0.0, 1.0)
            mask[int(round(y0 * n)):int(round(y1 * n)),
                 int(round(x0 * n)):int(round(x1 * n))] = True
    elif pattern == "channels":
        # feature width ~ n/40 keeps channels thin but resolved
        w = max(1, n // 40)
        # three horizontal channels spanning most of the domain
        for frac_y, frac_x0, frac_x1 in [(0.2, 0.05, 0.75), (0.5, 0.25, 0.95),
                                         (0.8, 0.1, 0.8)]:
            y = int(frac_y * n) + int(rng.integers(-w, w + 1))
            x0, x1 = int(frac_x0 * n), int(frac_x1 * n)
            mask[y:y + w, x0:x1] = True
        # two vertical channels
        for frac_x, frac_y0, frac_y1 in [(0.35, 0.1, 0.65), (0.65, 0.35, 0.9)]:
            x = int(frac_x * n) + int(rng.integers(-w, w + 1))
            y0, y1 = int(frac_y0 * n), int(frac_y1 * n)
            mask[y0:y1, x:x + w] = True
        # an L-shaped feature near the lower-left
        y, x = int(0.12 * n), int(0.12 * n)
        mask[y:y + w, x:x + int(0.3 * n)] = True
        mask[y:y + int(0.25 * n), x:x + w] = True
    else:
        raise ValueError(f"unknown pattern {pattern!r}")

    field = np.where(mask, float(contrast), 1.0)
    return field.ravel()
