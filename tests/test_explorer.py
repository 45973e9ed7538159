from pathlib import Path

import numpy as np
import pytest

import accd

from accd.errors import DivisionGuardError, NoFeasibleConfigError, RangeError, TableMissError
from accd.explorer import (
    DesignConfig,
    Domains,
    PlatformSpec,
    ProblemSpec,
    ResourceSingle,
    default_domains,
    default_platform,
    estimate_resources,
    evaluate,
    explore,
    load_resource_table,
    model_bandwidth,
    model_latency,
    model_saving_ratio,
    parse_platform_file,
    synthetic_resource_table,
    validate_constraints,
)

RESOURCES = Path(accd.__file__).parent / "resources"


def _flat_platform(domains, mem=10**9, dsp=10**9, alm=10**9, bw=1e30, freq=2e8, single=(1, 1, 1)):
    table = {}
    for b in domains.blk:
        for s in domains.simd:
            for u in domains.unroll:
                table[(b, s, u)] = ResourceSingle(*single)
    return PlatformSpec(
        frequency=freq, bw_max=bw, mem_max=mem, cu_max=dsp, lu_max=alm, resource_table=table
    )


# -- saving ratio -------------------------------------------------------------


def test_saving_ratio_clamped_example():
    p = ProblemSpec(src_size=10_000, trg_size=1000, d=8, n_iteration=5, alpha=10.0)
    c = DesignConfig(n_src_grp=100, n_trg_grp=10, blk=64, simd=1, unroll=1)
    clamped, raw = model_saving_ratio(p, c)
    assert raw == pytest.approx(50.0)
    assert clamped == 1.0


def test_saving_ratio_fixpoint_one():
    p = ProblemSpec(src_size=64, trg_size=16, d=4, n_iteration=3, alpha=3.0)
    c = DesignConfig(n_src_grp=64, n_trg_grp=16, blk=8, simd=1, unroll=1)
    clamped, raw = model_saving_ratio(p, c)
    assert raw == pytest.approx(1.0)
    assert clamped == pytest.approx(1.0)


def test_doubling_alpha_halves_raw_ratio():
    c = DesignConfig(n_src_grp=10, n_trg_grp=10, blk=8, simd=1, unroll=1)
    p1 = ProblemSpec(src_size=500, trg_size=500, d=4, n_iteration=2, alpha=1.0)
    p2 = ProblemSpec(src_size=500, trg_size=500, d=4, n_iteration=2, alpha=2.0)
    assert model_saving_ratio(p2, c)[1] == pytest.approx(model_saving_ratio(p1, c)[1] / 2)


# -- latency -------------------------------------------------------------------


def test_latency_all_ones():
    p = ProblemSpec(src_size=1, trg_size=1, d=1, n_iteration=1, alpha=1.0)
    c = DesignConfig(n_src_grp=1, n_trg_grp=1, blk=1, simd=1, unroll=1)
    ratio, _ = model_saving_ratio(p, c)
    filt, comp, total = model_latency(p, c, frequency=1.0)
    assert filt == 1.0
    assert comp == ratio
    assert total == filt + comp


def test_latency_compute_hand_value():
    p = ProblemSpec(src_size=10_000, trg_size=1000, d=32, n_iteration=10)
    c = DesignConfig(n_src_grp=100, n_trg_grp=10, blk=64, simd=4, unroll=4)
    _, comp, _ = model_latency(p, c, frequency=2e8, ratio_save=1.0)
    assert comp == pytest.approx(2.441e-5, rel=1e-3)


def test_latency_monotonicity():
    p = ProblemSpec(src_size=4096, trg_size=512, d=16, n_iteration=4)
    base_c = dict(n_src_grp=32, n_trg_grp=8, blk=32, simd=2, unroll=2)
    f = 2e8
    _, comp0, _ = model_latency(p, DesignConfig(**base_c), f, ratio_save=0.5)
    for knob in ("blk", "simd", "unroll"):
        bigger = dict(base_c)
        bigger[knob] *= 2
        _, comp1, _ = model_latency(p, DesignConfig(**bigger), f, ratio_save=0.5)
        assert comp1 < comp0
        if knob in ("simd", "unroll"):
            assert comp1 == pytest.approx(comp0 / 2)
        else:
            assert comp1 == pytest.approx(comp0 / 4)  # quadratic in blk
    filt0 = model_latency(p, DesignConfig(**base_c), f)[0]
    more_groups = dict(base_c)
    more_groups["n_src_grp"] *= 2
    assert model_latency(p, DesignConfig(**more_groups), f)[0] > filt0


def test_latency_additivity_exact():
    p = ProblemSpec(src_size=777, trg_size=333, d=9, n_iteration=3)
    c = DesignConfig(n_src_grp=11, n_trg_grp=5, blk=16, simd=2, unroll=4)
    filt, comp, total = model_latency(p, c, frequency=1.5e8)
    assert total == filt + comp


# -- bandwidth ------------------------------------------------------------------


def test_bandwidth_hand_value():
    p = ProblemSpec(src_size=600, trg_size=400, d=10, n_iteration=1, size_data_type=32)
    assert model_bandwidth(p, 1.0) == 40_000.0


def test_bandwidth_inverse_in_latency_and_linear_in_width():
    p32 = ProblemSpec(src_size=100, trg_size=100, d=8, n_iteration=1, size_data_type=32)
    p64 = ProblemSpec(src_size=100, trg_size=100, d=8, n_iteration=1, size_data_type=64)
    assert model_bandwidth(p32, 2.0) == model_bandwidth(p32, 1.0) / 2
    assert model_bandwidth(p64, 1.0) == 2 * model_bandwidth(p32, 1.0)
    with pytest.raises(DivisionGuardError):
        model_bandwidth(p32, 0.0)


# -- resources -------------------------------------------------------------------


def test_resource_estimate_hand_value():
    domains = Domains((1,), (1,), (128,), (1,), (1,))
    platform = _flat_platform(domains, single=(3, 2, 5))
    p = ProblemSpec(src_size=1000, trg_size=500, d=4, n_iteration=1)
    c = DesignConfig(n_src_grp=1, n_trg_grp=1, blk=128, simd=1, unroll=1)
    res = estimate_resources(p, c, platform)
    assert res["mem"] == 3 * 8 * 4 == 96
    assert res["dsp"] == 2 * 32
    assert res["alm"] == 5 * 32


def test_single_block_when_blk_covers_everything():
    domains = Domains((1,), (1,), (4096,), (1,), (1,))
    platform = _flat_platform(domains, single=(7, 9, 11))
    p = ProblemSpec(src_size=1000, trg_size=500, d=4, n_iteration=1)
    c = DesignConfig(n_src_grp=1, n_trg_grp=1, blk=4096, simd=1, unroll=1)
    res = estimate_resources(p, c, platform)
    assert res == {"mem": 7, "dsp": 9, "alm": 11}


def test_exact_multiple_has_no_ceiling_slack():
    domains = Domains((1,), (1,), (250,), (1,), (1,))
    platform = _flat_platform(domains, single=(1, 1, 1))
    p = ProblemSpec(src_size=1000, trg_size=500, d=4, n_iteration=1)
    c = DesignConfig(n_src_grp=1, n_trg_grp=1, blk=250, simd=1, unroll=1)
    res = estimate_resources(p, c, platform)
    assert res["mem"] == 4 * 2


def test_table_miss():
    domains = Domains((1,), (1,), (16,), (1,), (1,))
    platform = _flat_platform(domains)
    p = ProblemSpec(src_size=10, trg_size=10, d=2, n_iteration=1)
    with pytest.raises(TableMissError):
        estimate_resources(p, DesignConfig(1, 1, 32, 1, 1), platform)


# -- constraints -------------------------------------------------------------------


def test_constraints_zero_usage_feasible():
    domains = Domains((1,), (1,), (16,), (1,), (1,))
    platform = _flat_platform(domains)
    ok, violations = validate_constraints(0.0, {"mem": 0, "dsp": 0, "alm": 0}, platform)
    assert ok and violations == []


def test_constraint_boundary_inclusive():
    domains = Domains((1,), (1,), (16,), (1,), (1,))
    platform = _flat_platform(domains, mem=100)
    ok, _ = validate_constraints(0.0, {"mem": 100, "dsp": 0, "alm": 0}, platform)
    assert ok


def test_constraint_violation_margin():
    domains = Domains((1,), (1,), (16,), (1,), (1,))
    platform = _flat_platform(domains, bw=100.0)
    ok, violations = validate_constraints(101.0, {"mem": 0, "dsp": 0, "alm": 0}, platform)
    assert not ok
    assert violations[0]["constraint"] == "bw"
    assert violations[0]["margin"] == pytest.approx(0.01)


# -- explorer -----------------------------------------------------------------------


def _scan(p, platform, domains):
    """(config, report) of least (latency, key) among the feasible configs,
    by a plain loop over the grid, or None."""
    best = None
    for c in domains.all_configs():
        r = evaluate(p, c, platform)
        if r.feasible and (best is None or (r.latency_total, c.key()) < best[0]):
            best = ((r.latency_total, c.key()), c, r)
    return None if best is None else best[1:]


def test_single_point_domain_returns_it():
    domains = Domains((4,), (2,), (32,), (2,), (2,))
    platform = _flat_platform(domains)
    p = ProblemSpec(src_size=256, trg_size=64, d=8, n_iteration=2)
    result = explore(p, platform, domains)
    assert result.best_config == DesignConfig(4, 2, 32, 2, 2)
    assert result.report.feasible
    assert result.evaluations == 1


def test_explore_returns_the_exact_optimum_of_its_grid():
    domains = Domains((8, 16, 32, 64), (2, 4, 8, 16), (16, 32, 64), (1, 2, 4), (1, 2, 4))
    platform = _flat_platform(domains, mem=3000, dsp=60000, alm=10**7, single=(1, 2, 30))
    p = ProblemSpec(src_size=2000, trg_size=1000, d=16, n_iteration=10)
    want_config, want_report = _scan(p, platform, domains)
    res = explore(p, platform, domains)
    assert res.best_config == want_config
    assert res.report == want_report
    assert res.evaluations == 4 * 4 * 3 * 3 * 3


def test_no_feasible_config_raises_with_nearest_miss():
    domains = Domains((4,), (4,), (16,), (1,), (1,))
    platform = _flat_platform(domains, mem=0)
    p = ProblemSpec(src_size=64, trg_size=64, d=4, n_iteration=1)
    with pytest.raises(NoFeasibleConfigError) as exc:
        explore(p, platform, domains)
    assert exc.value.nearest_miss is not None
    assert exc.value.nearest_miss["violated"]


def test_an_empty_or_out_of_range_domain_is_a_range_error():
    # a domains file may give a parameter no values, a value of 0, or one
    # too large for the models' float arithmetic, as ProblemSpec's sizes
    for bad in ((), (0,), (2**53 + 1,), (4, 10**300)):
        with pytest.raises(RangeError):
            Domains(bad, (4,), (16,), (1,), (1,))
    assert Domains((2**53,), (4,), (16,), (1,), (1,)).n_src_grp == (2**53,)


def test_nearest_miss_is_the_config_of_least_total_violation():
    domains = Domains((4, 8), (2, 4), (16, 32, 64), (1, 2), (1, 2))
    platform = _flat_platform(domains, mem=1, dsp=1, alm=1)
    p = ProblemSpec(src_size=500, trg_size=300, d=8, n_iteration=1)
    misses = []
    for c in domains.all_configs():
        r = evaluate(p, c, platform)
        assert not r.feasible
        misses.append((sum(v["margin"] for v in r.violated), c.key(), c))
    want = min(misses, key=lambda t: t[:2])[2]
    with pytest.raises(NoFeasibleConfigError) as exc:
        explore(p, platform, domains)
    assert exc.value.nearest_miss["config"] == want.to_json_dict()


def test_returned_config_always_feasible_on_fuzzed_platforms():
    domains = Domains((8, 16), (4, 8), (16, 32, 64), (1, 2), (1, 2))
    p = ProblemSpec(src_size=500, trg_size=250, d=8, n_iteration=4)
    r = np.random.default_rng(0)
    checked = 0
    for trial in range(40):
        table = {
            key: ResourceSingle(
                int(r.integers(1, 5)), int(r.integers(1, 8)), int(r.integers(50, 400))
            )
            for key in synthetic_resource_table(domains)
        }
        platform = PlatformSpec(
            frequency=float(r.uniform(1e8, 4e8)),
            bw_max=float(r.uniform(1e3, 1e12)),
            mem_max=int(r.integers(1, 3000)),
            cu_max=int(r.integers(1, 5000)),
            lu_max=int(r.integers(1000, 10**6)),
            resource_table=table,
        )
        want = _scan(p, platform, domains)
        try:
            res = explore(p, platform, domains)
        except NoFeasibleConfigError:
            assert want is None, trial
            continue
        checked += 1
        assert evaluate(p, res.best_config, platform).feasible, trial
        assert res.best_config == want[0], trial
    assert checked > 0


# -- files ---------------------------------------------------------------------------


def test_resource_table_round_trip(tmp_path):
    # a table reads back whatever its row order, blank lines and padded
    # cells, and its keys need not come from the default domains
    table = {(3, 1, 2): ResourceSingle(5, 6, 7), (1, 4, 1): ResourceSingle(10, 0, 12)}
    rows = [
        f" {b}, {s},{u} ,{r.mem_blocks},{r.dsp},{r.alm}"
        for (b, s, u), r in reversed(table.items())
    ]
    path = tmp_path / "rt.csv"
    path.write_text("blk,simd,unroll,mem_blocks,dsp,alm\n" + "\n\n".join(rows) + "\n")
    assert load_resource_table(path) == table


def test_shipped_resource_table_matches_generator():
    table = load_resource_table(RESOURCES / "synthetic_resource_table.csv")
    assert table == synthetic_resource_table(default_domains())


def test_platform_file_parse():
    # the shipped platform file, comments included, names its resource
    # table relative to itself
    assert parse_platform_file(RESOURCES / "synthetic.platform") == default_platform()


def test_platform_file_missing_key(tmp_path):
    (tmp_path / "bad.platform").write_text("frequency_hz = 1e8\n")
    with pytest.raises(TableMissError):
        parse_platform_file(tmp_path / "bad.platform")


def test_problem_spec_validation():
    with pytest.raises(RangeError):
        ProblemSpec(src_size=0, trg_size=1, d=1, n_iteration=1)
    with pytest.raises(RangeError):
        ProblemSpec(src_size=1, trg_size=1, d=1, n_iteration=1, alpha=0.0)
    with pytest.raises(RangeError):
        ProblemSpec(src_size=1, trg_size=1, d=1, n_iteration=1, size_data_type=16)


def test_problem_sizes_stop_where_floats_stop_being_exact():
    # every field at 2**53 scores on the largest default design with finite
    # latencies; one more is a range error, not an overflow in the model
    big = dict.fromkeys(("src_size", "trg_size", "d", "n_iteration"), 2**53)
    report = evaluate(ProblemSpec(**big), DesignConfig(256, 64, 256, 8, 8), default_platform())
    assert np.isfinite([report.latency_filt, report.latency_total, report.bw_required]).all()
    for name in big:
        with pytest.raises(RangeError):
            ProblemSpec(**{**big, name: 2**53 + 1})


def test_design_config_validation():
    # every design field, the cost-model knobs too, is a whole number >= 1
    for name in ("n_src_grp", "n_trg_grp", "blk", "simd", "unroll"):
        with pytest.raises(RangeError):
            DesignConfig(**{"n_src_grp": 1, "n_trg_grp": 1, name: 0})
    with pytest.raises(TypeError):
        DesignConfig(n_src_grp=1, n_trg_grp=1, blk=16.0)
