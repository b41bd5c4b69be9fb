"""Life-table hazards to probability mass functions and lifetime samples.

A life table gives one-year death probabilities (hazards) q(k) per age k.
The recursion p(0) = q(0), p(k) = S(k-1) q(k) with the survival products
S(k-1) = prod_{l<k} (1 - q(l)) turns them into death-age masses, which are
normalized, optionally truncated to an interior age window, and sampled to
produce synthetic lifetimes for the goodness-of-fit tests.
"""

import csv
import math
from dataclasses import dataclass

import numpy as np

from .distributions import _count, _positive
from .rng import substream

__all__ = [
    "LifeTable",
    "Pmf",
    "hazard_to_pmf",
    "pmf_to_hazard",
    "truncate_pmf",
    "sample_lifetimes",
    "read_lifetable",
    "write_pmf",
    "read_pmf",
]

SUM_TOL = 1e-12


def _as_ages(ages):
    a = np.asarray(ages, dtype=np.int64)
    if a.ndim != 1 or a.size < 1:
        raise ValueError("ages must be a nonempty one-dimensional collection")
    if a[0] < 0 or np.any(np.diff(a) != 1):
        raise ValueError("ages must be consecutive nonnegative integers")
    return a


@dataclass(frozen=True)
class LifeTable:
    """One-year death probabilities q(k) in [0, 1] per consecutive age k.

    The last hazard may be 1 (an aggregation row ending the table).
    """

    ages: np.ndarray
    hazards: np.ndarray

    def __post_init__(self):
        ages = _as_ages(self.ages)
        q = np.asarray(self.hazards, dtype=float)
        if q.shape != ages.shape:
            raise ValueError("ages and hazards must have equal length")
        if not np.all(np.isfinite(q)) or np.any(q < 0.0) or np.any(q > 1.0):
            raise ValueError("hazards must lie in [0, 1]")
        object.__setattr__(self, "ages", ages)
        object.__setattr__(self, "hazards", q)


@dataclass(frozen=True)
class Pmf:
    """Normalized death-age masses; raw_total keeps the pre-normalization sum.

    raw_total makes the hazard reconstruction exact: the recursion's
    unnormalized masses are raw_total * masses.
    """

    ages: np.ndarray
    masses: np.ndarray
    raw_total: float = 1.0

    def __post_init__(self):
        ages = _as_ages(self.ages)
        p = np.asarray(self.masses, dtype=float)
        if p.shape != ages.shape:
            raise ValueError("ages and masses must have equal length")
        if not np.all(np.isfinite(p)) or np.any(p < 0.0):
            raise ValueError("masses must be finite and nonnegative")
        if abs(float(np.sum(p)) - 1.0) > SUM_TOL:
            raise ValueError("masses must sum to 1 within 1e-12")
        object.__setattr__(self, "ages", ages)
        object.__setattr__(self, "masses", p)
        object.__setattr__(self, "raw_total", _positive(self.raw_total, "raw_total"))


def hazard_to_pmf(table):
    """Death-age pmf of a life table via the survival-product recursion."""
    q = table.hazards
    surv = np.concatenate(([1.0], np.cumprod(1.0 - q)[:-1]))
    p = surv * q
    total = float(np.sum(p))
    if total <= 0.0:
        raise ValueError("all hazards are zero: no probability mass to normalize")
    return Pmf(ages=table.ages, masses=p / total, raw_total=total)


def pmf_to_hazard(pmf):
    """Inverse of hazard_to_pmf: q(k) = p(k)/S(k-1) on the raw masses.

    Rebuilds the survival multiplicatively, S(k) = S(k-1)(1 - q(k)),
    mirroring the forward product recursion; the additive 1 - cumsum(p)
    form cancels catastrophically once the survival is tiny. Late-age
    hazards are recoverable only to ~eps/S(k) from a normalized pmf, so
    past the depth where S sinks under ~1e-4 the last digits are noise.
    Ages past the point where survival is exhausted get hazard 0.
    """
    p = pmf.raw_total * pmf.masses
    q = np.zeros(p.size)
    surv = 1.0
    for k in range(p.size):
        if surv <= 0.0:
            break
        q[k] = min(max(p[k] / surv, 0.0), 1.0)
        surv *= 1.0 - q[k]
    return LifeTable(ages=pmf.ages, hazards=q)


def truncate_pmf(pmf, L, R):
    """Restrict the pmf to ages strictly between L and R and renormalize.

    Ages <= L and >= R lose their mass; the interior is rescaled to sum to
    one. L and R are integers with L < R; L = first age - 1 (or lower)
    means no left cut. raw_total of the result is the interior mass share,
    keeping hazard reconstruction exact for the truncated law.
    """
    L = _count(L, "L", -math.inf)
    R = _count(R, "R", L + 1)
    inside = (pmf.ages > L) & (pmf.ages < R)
    if not np.any(inside):
        raise ValueError(f"no ages strictly between L={L} and R={R}")
    interior = float(np.sum(pmf.masses[inside]))
    if interior <= 0.0:
        raise ValueError(f"no probability mass strictly between L={L} and R={R}")
    masses = np.where(inside, pmf.masses, 0.0) / interior
    return Pmf(ages=pmf.ages, masses=masses, raw_total=interior)


def sample_lifetimes(pmf, n, seed, jitter=False):
    """n i.i.d. ages drawn from the pmf, returned as floats.

    With jitter=True a U(0,1) year is added to each age, giving continuous
    positive lifetimes. Without jitter, positive mass at age 0 is refused
    because downstream tests need strictly positive samples.
    """
    n = _count(n, "n", 1)
    if not jitter and pmf.ages[0] == 0 and pmf.masses[0] > 0.0:
        raise ValueError(
            "pmf puts mass at age 0; enable jitter or truncate the left tail"
        )
    gen = substream(seed)
    cum = np.cumsum(pmf.masses)
    idx = np.searchsorted(cum, gen.random(n), side="right")
    ages = pmf.ages[np.minimum(idx, pmf.ages.size - 1)].astype(float)
    if jitter:
        ages = ages + gen.random(n)
    return ages


def _read_rows(path, columns=1):
    """Numeric CSV rows as floats: shape (m,) for one column, else (m, columns).

    Blank lines and '#' comment lines are skipped, and so are rows before
    the first numeric one (a header). A row after that with a non-numeric
    value or fewer than `columns` values raises ValueError, and so does a
    file without numeric rows. Columns past `columns` are ignored.
    """
    rows = []
    with open(path, newline="") as fh:
        for row in csv.reader(fh):
            if not row or not row[0].strip() or row[0].lstrip().startswith("#"):
                continue
            try:
                if len(row) < columns:
                    raise ValueError
                values = [float(v) for v in row[:columns]]
            except ValueError:
                if not rows:
                    continue  # header
                raise ValueError(f"malformed row {row!r} in {path}") from None
            rows.append(values[0] if columns == 1 else values)
    if not rows:
        raise ValueError(f"no numeric data in {path}")
    return np.asarray(rows, dtype=float)


def read_lifetable(path):
    """Two-column CSV (age, hazard) -> LifeTable; a header row is skipped."""
    ages, hazards = _read_rows(path, 2).T
    return LifeTable(ages=ages, hazards=hazards)


def write_pmf(pmf, path):
    """Write (age, mass) rows with 12 significant digits."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["age", "mass"])
        for age, mass in zip(pmf.ages, pmf.masses):
            writer.writerow([int(age), f"{mass:.12g}"])


def read_pmf(path):
    """Read an (age, mass) CSV written by write_pmf.

    The 12-digit formatting perturbs the sum, so masses are renormalized on
    read. The recursion total is not persisted; the result reconstructs the
    normalized law's own hazards.
    """
    ages, p = _read_rows(path, 2).T
    total = float(np.sum(p))
    if not math.isfinite(total) or abs(total - 1.0) > 1e-6:
        raise ValueError(f"pmf file masses sum to {total}, expected 1")
    return Pmf(ages=ages, masses=p / total)
