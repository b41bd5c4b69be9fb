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
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial
from itertools import product

from .bootstrap import DEFAULT_TESTS, _expand_tests, bootstrap_many
from .distributions import AlternativeSpec, GompertzParams, _as_spec, alt_sample
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
DESK_REPLICATIONS = 1000
DESK_BOOTSTRAP = 500
FULL_REPLICATIONS = 10000
FULL_BOOTSTRAP = 2000


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
    (go, ln, ig, w, u, pow, sp, lf, mix) are accepted.
    """
    tokens = str(text).split()
    if not tokens:
        raise ValueError("empty distribution spec")
    params = {}
    for tok in tokens[1:]:
        key, sep, val = tok.partition("=")
        if not sep or not key or not val:
            raise ValueError(f"expected key=value, got {tok!r} in {text!r}")
        try:
            params[key] = float(val)
        except ValueError:
            raise ValueError(f"non-numeric value in {tok!r}") from None
    spec = AlternativeSpec(tokens[0], **params)
    if spec.family == "gompertz":
        return GompertzParams(spec.params["eta"], spec.params["b"])
    return spec


@dataclass(frozen=True)
class SimulationConfig:
    """Study layout: scenarios x sizes, test battery, budgets, master seed."""

    scenarios: tuple
    sizes: tuple
    a_grid: tuple = DEFAULT_A_GRID
    tests: tuple = DEFAULT_TESTS
    alpha: float = 0.05
    replications: int = DESK_REPLICATIONS
    bootstrap: int = DESK_BOOTSTRAP
    seed: int = 0

    def __post_init__(self):
        scen = tuple(self.scenarios)
        if not scen:
            raise ValueError("at least one scenario is required")
        for s in scen:
            if not isinstance(s, (GompertzParams, AlternativeSpec)):
                raise ValueError(f"scenario must be a distribution spec, got {s!r}")
        sizes = tuple(int(n) for n in self.sizes)
        if not sizes or any(n < 2 for n in sizes):
            raise ValueError("sizes must be integers >= 2")
        grid = tuple(float(a) for a in self.a_grid)
        if not grid or any(not a > 0.0 for a in grid):
            raise ValueError("a_grid must contain positive reals")
        tests = tuple(str(t).lower() for t in self.tests)
        _expand_tests(tests, grid)
        if int(self.replications) < 1 or int(self.bootstrap) < 1:
            raise ValueError("replications and bootstrap size must be >= 1")
        if not 0.0 < float(self.alpha) < 1.0:
            raise ValueError("alpha must lie strictly inside (0, 1)")
        object.__setattr__(self, "scenarios", scen)
        object.__setattr__(self, "sizes", sizes)
        object.__setattr__(self, "a_grid", grid)
        object.__setattr__(self, "tests", tests)
        object.__setattr__(self, "alpha", float(self.alpha))
        object.__setattr__(self, "replications", int(self.replications))
        object.__setattr__(self, "bootstrap", int(self.bootstrap))
        object.__setattr__(self, "seed", int(self.seed))

    def kinds(self):
        """Expand the test names into concrete kinds ('stein' per a in grid)."""
        return _expand_tests(self.tests, self.a_grid)


@dataclass(frozen=True)
class CellResult:
    """Counts for one (scenario, n) cell; rates divide by the cell's M (and B)."""

    scenario: str
    n: int
    replications: int
    bootstrap: int
    rejections: dict
    not_found_fit: int
    not_found_boot: int
    failures: int
    seconds: float

    def rejection_rate(self, kind):
        return self.rejections[kind] / self.replications

    def not_found_fit_rate(self):
        return self.not_found_fit / self.replications

    def not_found_boot_rate(self):
        return self.not_found_boot / (self.replications * self.bootstrap)


@dataclass(frozen=True)
class SimulationReport:
    config: SimulationConfig
    cells: tuple
    seconds: float


def _run_chunk(scenario, n, kinds, B, alpha, cell_seed, start, stop):
    """Replicates [start, stop) of one cell; returns pure integer counts."""
    rejections = {kind: 0 for kind in kinds}
    nf_fit = nf_boot = failures = 0
    for i in range(start, stop):
        x = alt_sample(scenario, n, derive_key(cell_seed, i, 0))
        try:
            outcomes = bootstrap_many(
                x, kinds, B=B, alpha=alpha, seed=derive_key(cell_seed, i, 1)
            )
        except (ValueError, ArithmeticError):
            failures += 1
            continue
        first = outcomes[kinds[0]]
        nf_fit += int(first.fit.fallback_used)
        # frequency is k/B for integer k; recover the count exactly
        nf_boot += int(round(first.not_found_frequency_bootstrap * B))
        for kind in kinds:
            rejections[kind] += int(outcomes[kind].reject)
    return rejections, nf_fit, nf_boot, failures


def _cell_chunks(m, workers):
    if workers <= 1:
        return [(0, m)]
    step = max(1, -(-m // (4 * workers)))
    return [(lo, min(lo + step, m)) for lo in range(0, m, step)]


def run_study(config, workers=1, progress=True):
    """Run the full study grid; deterministic in config.seed for any workers.

    With workers > 1 one process pool serves every cell; otherwise the
    chunks are mapped in-process. Raises ValueError when workers < 1.
    """
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
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
            cell = partial(_run_chunk, scenario, n, kinds, b, config.alpha, cell_seed)
            parts = run(cell, *zip(*_cell_chunks(m, workers)))
            rejections = {kind: 0 for kind in kinds}
            nf_fit = nf_boot = failures = 0
            for rej, nf1, nf2, bad in parts:
                for kind in kinds:
                    rejections[kind] += rej[kind]
                nf_fit += nf1
                nf_boot += nf2
                failures += bad
            seconds = time.perf_counter() - t_cell
            cells.append(
                CellResult(
                    scenario=label,
                    n=n,
                    replications=m,
                    bootstrap=b,
                    rejections=rejections,
                    not_found_fit=nf_fit,
                    not_found_boot=nf_boot,
                    failures=failures,
                    seconds=seconds,
                )
            )
            if progress:
                top = max(rejections.values()) / m if m else 0.0
                print(
                    f"[study] {label} n={n}: M={m} B={b} "
                    f"max_rate={top:.3f} nf_fit={nf_fit / m:.3f} "
                    f"failures={failures} ({seconds:.1f}s)",
                    file=sys.stderr,
                    flush=True,
                )
    return SimulationReport(
        config=config, cells=tuple(cells), seconds=time.perf_counter() - t_all
    )


def report_to_csv(report):
    """One CSV row per (scenario, n, test); rates as 4-digit decimals."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(
        ["scenario", "n", "test", "a", "rejection_rate", "notfound_fit", "notfound_boot"]
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
                ]
            )
    return buf.getvalue()


_CONFIG_KEYS = {
    "scenarios",
    "sizes",
    "n",
    "a",
    "tests",
    "alpha",
    "replications",
    "m",
    "bootstrap",
    "b",
    "seed",
    "full_scale",
}


def config_from_file(path):
    """Parse a flat key=value study config.

    Keys: scenarios (';'-separated 'family key=value ...' specs), sizes (or
    n, comma-separated), a (comma-separated grid), tests (comma-separated
    names), alpha, replications (or m), bootstrap (or b), seed, full_scale
    (true/false; lifts M and B to the full study scale unless given
    explicitly). '#' starts a comment.
    """
    kv = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, val = line.partition("=")
            key = key.strip().lower()
            if not sep or key not in _CONFIG_KEYS:
                raise ValueError(f"bad config line: {raw.rstrip()!r}")
            kv[key] = val.strip()
    if "scenarios" not in kv:
        raise ValueError("config must set scenarios=")
    if "sizes" not in kv and "n" not in kv:
        raise ValueError("config must set sizes= (or n=)")
    scenarios = tuple(
        parse_family(part) for part in kv["scenarios"].split(";") if part.strip()
    )
    sizes = tuple(int(s) for s in kv.get("sizes", kv.get("n", "")).split(",") if s.strip())
    full = kv.get("full_scale", "false").lower() in ("1", "true", "yes", "on")
    m_default = FULL_REPLICATIONS if full else DESK_REPLICATIONS
    b_default = FULL_BOOTSTRAP if full else DESK_BOOTSTRAP
    args = {
        "scenarios": scenarios,
        "sizes": sizes,
        "replications": int(kv.get("replications", kv.get("m", m_default))),
        "bootstrap": int(kv.get("bootstrap", kv.get("b", b_default))),
        "alpha": float(kv.get("alpha", 0.05)),
        "seed": int(kv.get("seed", 0)),
    }
    if "a" in kv:
        args["a_grid"] = tuple(float(s) for s in kv["a"].split(",") if s.strip())
    if "tests" in kv:
        args["tests"] = tuple(s.strip() for s in kv["tests"].split(",") if s.strip())
    return SimulationConfig(**args)
