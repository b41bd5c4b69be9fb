import math

import numpy as np
import pytest

from gomptest.lifetable import (
    LifeTable,
    Pmf,
    hazard_to_pmf,
    pmf_to_hazard,
    read_lifetable,
    read_pmf,
    sample_lifetimes,
    truncate_pmf,
    write_pmf,
)


def test_hazard_to_pmf_hand_example():
    lt = LifeTable(ages=np.array([0, 1]), hazards=np.array([0.5, 1.0]))
    pmf = hazard_to_pmf(lt)
    assert np.allclose(pmf.masses, [0.5, 0.5], rtol=0, atol=1e-16)
    assert pmf.raw_total == 1.0


def test_constant_hazard_gives_geometric():
    c = 0.3
    k = np.arange(50)
    pmf = hazard_to_pmf(LifeTable(ages=k, hazards=np.full(50, c)))
    geo = c * (1.0 - c) ** k
    geo /= geo.sum()
    assert np.allclose(pmf.masses, geo, rtol=0, atol=1e-12)


def test_round_trip_recovers_hazards():
    rng = np.random.default_rng(3)
    q = rng.uniform(0.01, 0.4, 30)
    q[-1] = 0.7  # not a full table: recursion leaves residual mass
    lt = LifeTable(ages=np.arange(30), hazards=q)
    back = pmf_to_hazard(hazard_to_pmf(lt))
    assert np.allclose(back.hazards, q, rtol=0, atol=1e-12)


def test_round_trip_with_exhausted_survival():
    q = np.array([0.2, 1.0, 0.3])  # q=1 kills all survival mass at age 1
    back = pmf_to_hazard(hazard_to_pmf(LifeTable(ages=np.arange(3), hazards=q)))
    assert np.allclose(back.hazards[:2], q[:2], rtol=0, atol=1e-12)
    assert back.hazards[2] == 0.0  # unrecoverable beyond extinction


def test_all_zero_hazards_error():
    with pytest.raises(ValueError):
        hazard_to_pmf(LifeTable(ages=np.arange(3), hazards=np.zeros(3)))


def test_lifetable_validation():
    with pytest.raises(ValueError):
        LifeTable(ages=np.array([0, 2]), hazards=np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        LifeTable(ages=np.array([0, 1]), hazards=np.array([0.5, 1.5]))
    with pytest.raises(ValueError):
        LifeTable(ages=np.array([0, 1]), hazards=np.array([-0.1, 0.5]))
    with pytest.raises(ValueError):
        LifeTable(ages=np.array([0]), hazards=np.array([0.5, 0.5]))


def test_pmf_validation():
    with pytest.raises(ValueError):
        Pmf(ages=np.arange(2), masses=np.array([0.6, 0.6]))
    with pytest.raises(ValueError):
        Pmf(ages=np.arange(2), masses=np.array([1.2, -0.2]))


def test_truncation_uniform_example():
    u = Pmf(ages=np.arange(10), masses=np.full(10, 0.1))
    t = truncate_pmf(u, 1, 8)
    assert np.allclose(t.masses[2:8], 1.0 / 6, rtol=1e-14)
    assert np.all(t.masses[:2] == 0.0) and np.all(t.masses[8:] == 0.0)
    assert abs(t.masses.sum() - 1.0) <= 1e-12


def test_truncation_no_cut_is_identity():
    u = hazard_to_pmf(LifeTable(ages=np.arange(6), hazards=np.full(6, 0.4)))
    t = truncate_pmf(u, -1, 6)
    assert np.allclose(t.masses, u.masses, rtol=0, atol=1e-15)


def test_truncation_idempotent():
    u = Pmf(ages=np.arange(10), masses=np.full(10, 0.1))
    t1 = truncate_pmf(u, 1, 8)
    t2 = truncate_pmf(t1, 1, 8)
    assert np.allclose(t2.masses, t1.masses, rtol=0, atol=1e-15)


def test_truncation_round_trip_hazards():
    rng = np.random.default_rng(8)
    q = rng.uniform(0.05, 0.5, 20)
    pmf = truncate_pmf(hazard_to_pmf(LifeTable(ages=np.arange(20), hazards=q)), 3, 15)
    again = hazard_to_pmf(pmf_to_hazard(pmf))
    assert np.allclose(again.masses, pmf.masses, rtol=0, atol=1e-12)


def test_truncation_validation():
    u = Pmf(ages=np.arange(10), masses=np.full(10, 0.1))
    with pytest.raises(ValueError):
        truncate_pmf(u, 8, 1)
    with pytest.raises(ValueError):
        truncate_pmf(u, 4, 5)  # no age strictly inside
    lopsided = Pmf(ages=np.arange(4), masses=np.array([0.5, 0.0, 0.0, 0.5]))
    with pytest.raises(ValueError):
        truncate_pmf(lopsided, 0, 3)  # interior exists but has no mass
    # the cut ages are integers, never truncated
    for L, R, match in ((2.9, 7, "L must"), ("1", 7, "L must"), (True, 7, "L must"),
                        (1, 7.5, "R must"), (1, math.inf, "R must")):
        with pytest.raises(ValueError, match=match):
            truncate_pmf(u, L, R)
    assert np.array_equal(truncate_pmf(u, np.int64(-5), np.int64(8)).masses,
                          truncate_pmf(u, -1, 8).masses)
    for raw_total in (0.0, math.nan, "1", True):
        with pytest.raises(ValueError, match="raw_total must"):
            Pmf(ages=np.arange(10), masses=np.full(10, 0.1), raw_total=raw_total)


def test_sampling_deterministic_and_in_support():
    u = truncate_pmf(Pmf(ages=np.arange(10), masses=np.full(10, 0.1)), 1, 8)
    s1 = sample_lifetimes(u, 500, seed=42)
    s2 = sample_lifetimes(u, 500, seed=42)
    assert np.array_equal(s1, s2)
    assert np.all((s1 >= 2) & (s1 <= 7))
    assert s1.dtype == float


def test_sampling_frequencies_match_masses():
    pmf = hazard_to_pmf(LifeTable(ages=np.arange(1, 7), hazards=np.full(6, 0.35)))
    s = sample_lifetimes(pmf, 40000, seed=9)
    freq = np.array([(s == a).mean() for a in pmf.ages])
    assert np.max(np.abs(freq - pmf.masses)) < 0.01


def test_jitter_keeps_age_and_adds_fraction():
    u = truncate_pmf(Pmf(ages=np.arange(10), masses=np.full(10, 0.1)), 1, 8)
    plain = sample_lifetimes(u, 200, seed=5)
    jittered = sample_lifetimes(u, 200, seed=5, jitter=True)
    assert np.array_equal(np.floor(jittered), plain)
    assert np.all(jittered >= plain) and np.all(jittered < plain + 1.0)


def test_mass_at_zero_requires_jitter():
    u = Pmf(ages=np.arange(3), masses=np.array([0.5, 0.25, 0.25]))
    with pytest.raises(ValueError):
        sample_lifetimes(u, 10, seed=1)
    s = sample_lifetimes(u, 200, seed=1, jitter=True)
    assert np.all(s > 0.0)


def test_sampling_validation():
    u = Pmf(ages=np.arange(1, 4), masses=np.array([0.5, 0.25, 0.25]))
    with pytest.raises(ValueError):
        sample_lifetimes(u, 0, seed=1)


def test_sample_size_must_be_an_integer():
    u = Pmf(ages=np.arange(1, 4), masses=np.array([0.5, 0.25, 0.25]))
    for n in (2.5, 3.0, "3", None, True):
        with pytest.raises(ValueError, match="integer"):
            sample_lifetimes(u, n, seed=1)
    assert np.array_equal(sample_lifetimes(u, np.int64(5), seed=1), sample_lifetimes(u, 5, seed=1))


def test_csv_round_trips(tmp_path):
    lt_path = tmp_path / "lt.csv"
    lt_path.write_text("# period table\nage,hazard\n0,0.5\n# mid-table note\n1,0.25\n2,1.0\n")
    table = read_lifetable(lt_path)
    assert np.array_equal(table.ages, [0, 1, 2])
    assert np.allclose(table.hazards, [0.5, 0.25, 1.0])

    pmf = hazard_to_pmf(table)
    out = tmp_path / "pmf.csv"
    write_pmf(pmf, out)
    out.write_text("# written by write_pmf\n" + out.read_text() + "# end\n")
    back = read_pmf(out)
    assert np.array_equal(back.ages, pmf.ages)
    assert np.allclose(back.masses, pmf.masses, rtol=0, atol=1e-12)


def test_csv_error_cases(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("age,hazard\n")
    with pytest.raises(ValueError):
        read_lifetable(empty)
    bad = tmp_path / "bad.csv"
    bad.write_text("age,hazard\n0,0.5\n1,oops\n")
    with pytest.raises(ValueError):
        read_lifetable(bad)
    short = tmp_path / "short.csv"
    short.write_text("age,hazard\n0,0.5\n1\n")
    with pytest.raises(ValueError):
        read_lifetable(short)
    badpmf = tmp_path / "badpmf.csv"
    badpmf.write_text("age,mass\n0,0.9\n1,0.9\n")
    with pytest.raises(ValueError):
        read_pmf(badpmf)
    for text in ("age,mass\n0,0.5\n1,0.5\nage,mass\n", "age,mass\n0,0.5\n1\n"):
        badpmf.write_text(text)
        with pytest.raises(ValueError):
            read_pmf(badpmf)
