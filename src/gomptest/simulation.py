"""Monte-Carlo study harness: size, power, and fallback-frequency tables.

For every (scenario, sample size) cell the harness draws M datasets, runs the
shared-bootstrap battery of tests on each, and tallies rejections and
fallback fits. Every replicate's random streams are keyed by
(master seed, scenario label, n, replicate index), so reports are bitwise
identical no matter how the replicates are chunked across workers: the only
reductions are integer counts.
"""

import csv
import io
import math
import numbers
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import MISSING, dataclass, fields
from functools import partial
from itertools import product

import numpy as np

from .bootstrap import DEFAULT_TESTS, _expand_tests, bootstrap_many
from .distributions import AlternativeSpec, GompertzParams, _as_spec, alt_sample
from .edf_tests import _fit_clip_count
from .rng import _MASK64, derive_key

__all__ = [
    "DEFAULT_A_GRID",
    "SimulationConfig",
    "CellResult",
    "SimulationReport",
    "run_study",
    "report_to_csv",
    "config_from_file",
    "parse_family",
    "scenario_label",
]

DEFAULT_A_GRID = (0.1, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0, 5.0, 10.0)


def _fnv1a(text):
    # FNV-1a 64-bit; stable string hash for scenario labels across runs.
    h = 0xCBF29CE484222325
    for byte in text.encode("utf-8"):
        h = ((h ^ byte) * 0x100000001B3) & _MASK64
    return h


def scenario_label(scenario):
    """Compact text tag used in reports and to key the cell's seed stream."""
    return _as_spec(scenario).label()


def parse_family(text):
    """Parse 'family key=value ...' into GompertzParams or AlternativeSpec.

    Examples: 'gompertz eta=1 b=1', 'gamma k=3', 'ln sigma=0.5'. Aliases
    (go, ln, ig, w, u, pow, sp, lf, mix) are accepted; a repeated key raises
    ValueError.
    """
    tokens = str(text).split()
    if not tokens:
        raise ValueError("empty distribution spec")
    params = {}
    for tok in tokens[1:]:
        key, sep, val = tok.partition("=")
        if not sep or not key or not val:
            raise ValueError(f"expected key=value, got {tok!r} in {text!r}")
        if key in params:
            raise ValueError(f"repeated key {key!r} in {text!r}")
        try:
            params[key] = float(val)
        except ValueError:
            raise ValueError(f"non-numeric value in {tok!r}") from None
    spec = AlternativeSpec(tokens[0], **params)
    if spec.family == "gompertz":
        return GompertzParams(spec.params["eta"], spec.params["b"])
    return spec


def _whole(v, what):
    # Config-file text such as "50" converts; a number must not be truncated,
    # and int() of NaN, an infinity or non-numeric text raises.
    try:
        if isinstance(v, str) or int(v) == v:
            return int(v)
    except (OverflowError, ValueError):
        pass
    raise ValueError(f"{what}: expected a whole number, got {v!r}")


@dataclass(frozen=True)
class SimulationConfig:
    """Study layout: scenarios x sizes, test battery, budgets, master seed."""

    scenarios: tuple
    sizes: tuple
    a_grid: tuple = DEFAULT_A_GRID
    tests: tuple = DEFAULT_TESTS
    alpha: float = 0.05
    replications: int = 1000
    bootstrap: int = 500
    seed: int = 0

    def __post_init__(self):
        scen = tuple(self.scenarios)
        if not scen:
            raise ValueError("at least one scenario is required")
        for s in scen:
            if not isinstance(s, (GompertzParams, AlternativeSpec)):
                raise ValueError(f"scenario must be a distribution spec, got {s!r}")
        sizes = tuple(_whole(n, "sizes") for n in self.sizes)
        if not sizes or any(n < 2 for n in sizes):
            raise ValueError("sizes must be integers >= 2")
        grid = tuple(float(a) for a in self.a_grid)
        if not grid or any(not a > 0.0 for a in grid):
            raise ValueError("a_grid must contain positive reals")
        tests = tuple(dict.fromkeys(k.name for k in _expand_tests(self.tests, grid)))
        m, b = _whole(self.replications, "replications"), _whole(self.bootstrap, "bootstrap")
        if m < 1 or b < 1:
            raise ValueError("replications and bootstrap size must be >= 1")
        if not 0.0 < float(self.alpha) < 1.0:
            raise ValueError("alpha must lie strictly inside (0, 1)")
        object.__setattr__(self, "scenarios", scen)
        object.__setattr__(self, "sizes", sizes)
        object.__setattr__(self, "a_grid", grid)
        object.__setattr__(self, "tests", tests)
        object.__setattr__(self, "alpha", float(self.alpha))
        object.__setattr__(self, "replications", m)
        object.__setattr__(self, "bootstrap", b)
        object.__setattr__(self, "seed", _whole(self.seed, "seed"))

    def kinds(self):
        """Expand the test names into concrete kinds ('stein' per a in grid)."""
        return _expand_tests(self.tests, self.a_grid)


@dataclass(frozen=True)
class CellResult:
    """Counts for one (scenario, n) cell; rates divide by the replicates that
    did not fail, M - failures (times B), and are NaN when all of them failed.
    clipped counts the data PIT values outside [EPS, 1-EPS], which the EDF
    statistics clip, over the valid replicates' data fits."""

    scenario: str
    n: int
    replications: int
    bootstrap: int
    rejections: dict
    not_found_fit: int
    not_found_boot: int
    clipped: int
    failures: int
    seconds: float

    def _rate(self, count, per=1):
        valid = (self.replications - self.failures) * per
        return count / valid if valid else math.nan

    def rejection_rate(self, kind):
        return self._rate(self.rejections[kind])

    def not_found_fit_rate(self):
        return self._rate(self.not_found_fit)

    def not_found_boot_rate(self):
        return self._rate(self.not_found_boot, self.bootstrap)


@dataclass(frozen=True)
class SimulationReport:
    config: SimulationConfig
    cells: tuple
    seconds: float


def _run_chunk(scenario, n, kinds, B, alpha, cell_seed, start, stop):
    """Replicates [start, stop) of one cell as one integer tally: rejections
    per kind, then data-fit fallbacks, bootstrap refit fallbacks, clipped data
    PIT values, failures."""
    tally = np.zeros(len(kinds) + 4, dtype=np.int64)
    for i in range(start, stop):
        x = alt_sample(scenario, n, derive_key(cell_seed, i, 0))
        try:
            outcomes = bootstrap_many(
                x, kinds, B=B, alpha=alpha, seed=derive_key(cell_seed, i, 1)
            )
        except (ValueError, ArithmeticError):
            tally[-1] += 1
            continue
        first = outcomes[kinds[0]]
        # frequency is k/B for integer k; recover the count exactly
        nf_boot = round(first.not_found_frequency_bootstrap * B)
        clipped = _fit_clip_count(x, first.fit)
        tally[:-1] += [
            *(outcomes[k].reject for k in kinds), first.fit.fallback_used, nf_boot, clipped
        ]
    return tally


def _cell_chunks(m, workers):
    if workers <= 1:
        return [(0, m)]
    step = max(1, -(-m // (4 * workers)))
    return [(lo, min(lo + step, m)) for lo in range(0, m, step)]


def run_study(config, workers=1, progress=True):
    """Run the full study grid; deterministic in config.seed for any workers.

    With workers > 1 one process pool serves every cell; otherwise the
    chunks are mapped in-process. Raises ValueError unless workers is an
    integer of at least 1.
    """
    if not (isinstance(workers, numbers.Integral) and workers >= 1):
        raise ValueError(f"workers must be an integer of at least 1, got {workers!r}")
    kinds = config.kinds()
    m, b = config.replications, config.bootstrap
    cells = []
    t_all = time.perf_counter()
    with ProcessPoolExecutor(max_workers=workers) if workers > 1 else nullcontext() as pool:
        run = map if pool is None else pool.map
        for scenario, n in product(config.scenarios, config.sizes):
            label = scenario_label(scenario)
            cell_seed = derive_key(config.seed, _fnv1a(label), n)
            t_cell = time.perf_counter()
            chunk = partial(_run_chunk, scenario, n, kinds, b, config.alpha, cell_seed)
            tally = sum(run(chunk, *zip(*_cell_chunks(m, workers))))
            *rejected, nf_fit, nf_boot, clipped, failures = map(int, tally)
            cell = CellResult(
                scenario=label,
                n=n,
                replications=m,
                bootstrap=b,
                rejections=dict(zip(kinds, rejected)),
                not_found_fit=nf_fit,
                not_found_boot=nf_boot,
                clipped=clipped,
                failures=failures,
                seconds=time.perf_counter() - t_cell,
            )
            cells.append(cell)
            if progress:
                top = max(map(cell.rejection_rate, kinds))
                print(
                    f"[study] {label} n={n}: M={m} B={b} "
                    f"max_rate={top:.3f} nf_fit={cell.not_found_fit_rate():.3f} "
                    f"failures={failures} ({cell.seconds:.1f}s)",
                    file=sys.stderr,
                    flush=True,
                )
    return SimulationReport(
        config=config, cells=tuple(cells), seconds=time.perf_counter() - t_all
    )


def report_to_csv(report):
    """One CSV row per (scenario, n, test); rates over valid_replications, 4 decimals.

    clipped is the cell's count of data PIT values that the EDF statistics
    clip (see CellResult), the same on every row of the cell.
    """
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(
        ["scenario", "n", "test", "a", "rejection_rate", "notfound_fit", "notfound_boot",
         "failures", "valid_replications", "clipped"]
    )
    for cell in report.cells:
        for kind in cell.rejections:
            writer.writerow(
                [
                    cell.scenario,
                    cell.n,
                    kind.name,
                    f"{kind.a:g}" if kind.a is not None else "NA",
                    f"{cell.rejection_rate(kind):.4f}",
                    f"{cell.not_found_fit_rate():.4f}",
                    f"{cell.not_found_boot_rate():.4f}",
                    cell.failures,
                    cell.replications - cell.failures,
                    cell.clipped,
                ]
            )
    return buf.getvalue()


def _split_list(text, sep=","):
    """The stripped, nonempty items of a `sep`-separated list."""
    return tuple(p.strip() for p in text.split(sep) if p.strip())


def config_from_file(path):
    """Parse a flat key=value study config into a SimulationConfig.

    The keys are SimulationConfig's field names, in any case: scenarios
    (';'-separated 'family key=value ...' specs), sizes, a_grid and tests
    (comma-separated), alpha, replications, bootstrap and seed. Each may be
    given once, and an unknown key raises ValueError. Unset fields take
    SimulationConfig's defaults, which also converts and checks every
    value. '#' starts a comment.
    """
    by_name = {f.name: f for f in fields(SimulationConfig)}
    settings = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, val = line.partition("=")
            key = key.strip().lower()
            if not sep or key not in by_name:
                raise ValueError(
                    f"bad config line {raw.rstrip()!r}; expected key = value with a key "
                    f"from {', '.join(by_name)}"
                )
            if key in settings:
                raise ValueError(f"config sets {key} twice: {raw.rstrip()!r}")
            val = val.strip()
            if by_name[key].type is tuple:  # the tuple-typed fields are lists
                val = _split_list(val, ";" if key == "scenarios" else ",")
            settings[key] = val
    missing = [k for k, f in by_name.items() if f.default is MISSING and k not in settings]
    if missing:
        raise ValueError(f"config must set {' and '.join(missing)}")
    settings["scenarios"] = tuple(map(parse_family, settings["scenarios"]))
    return SimulationConfig(**settings)
