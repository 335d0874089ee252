"""Self-tests of the benchmark's own code.

Run from the root of a checkout: python3 -m pytest perfbench
"""

import json
import statistics
import sys
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from actris import channel, circuit, reflection  # noqa: E402
from stats import harrell_davis, relative_iqr, tail  # noqa: E402
from tracer import Tracer, span_stats  # noqa: E402


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_span_stats_on_nested_spans():
    # root [0, 10] holds a [1, 4] and b [5, 9]; b holds a [6, 7]
    name_id = [0, 1, 2, 1]
    parent = [-1, 0, 0, 2]
    start = [0.0, 1.0, 5.0, 6.0]
    end = [10.0, 4.0, 9.0, 7.0]
    calls, total, own = span_stats(name_id, parent, start, end, 3)
    assert calls.tolist() == [1, 2, 1]
    assert total.tolist() == pytest.approx([10.0, 4.0, 4.0])
    assert own.tolist() == pytest.approx([3.0, 4.0, 3.0])
    assert own.sum() == pytest.approx(10.0)


def test_tracer_self_times_with_fake_clock():
    tracer = Tracer(clock=FakeClock([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 8.0, 10.0]))
    with tracer.span("root"):
        with tracer.span("mid"):
            with tracer.span("leaf"):
                pass
        with tracer.span("leaf"):
            pass
    stats = tracer.stats()
    assert stats["root"] == (1, 10.0, 4.0)
    assert stats["mid"] == (1, 3.0, 2.0)
    assert stats["leaf"] == (2, 4.0, 4.0)
    assert sum(s[2] for s in stats.values()) == pytest.approx(10.0)


def test_wrap_function_patches_every_binding_site_and_restores():
    def solve(x):
        return 2 * x

    defining = types.ModuleType("pkg.core")
    defining.solve = solve
    importer = types.ModuleType("pkg.user")
    importer.solve = solve
    importer.alias = solve
    bystander = types.ModuleType("pkg.other")
    modules = {"pkg.core": defining, "pkg.user": importer, "pkg.other": bystander}

    tracer = Tracer()
    seen = []
    tracer.wrap_function("core.solve", modules, "pkg.core", "solve", on_return=seen.append)
    tracer.wrap_function("core.gone", modules, "pkg.core", "gone")
    assert tracer.sites["core.solve"] == ["pkg.core.solve", "pkg.user.alias", "pkg.user.solve"]
    assert tracer.absent == ["core.gone"]
    assert importer.solve(3) == 6 and importer.alias(4) == 8 and defining.solve(1) == 2
    assert seen == [6, 8, 2]
    assert tracer.stats()["core.solve"][0] == 3
    tracer.uninstall()
    assert defining.solve is solve and importer.solve is solve and importer.alias is solve


def test_wrapped_exception_is_counted_and_span_closed():
    def boom():
        raise ValueError("no")

    mod = types.ModuleType("pkg.core")
    mod.boom = boom
    tracer = Tracer()
    tracer.wrap_function("core.boom", {"pkg.core": mod}, "pkg.core", "boom")
    with tracer.span("root"):
        with pytest.raises(ValueError):
            mod.boom()
    assert tracer.counters["core.boom.raised"] == 1
    assert tracer.stats()["core.boom"][0] == 1
    assert not tracer._stack


def test_harrell_davis_matches_known_values():
    # symmetric samples: the median estimate is the centre
    assert harrell_davis([1.0, 2.0, 3.0, 4.0, 5.0], 0.5) == pytest.approx(3.0)
    assert harrell_davis([7.0], 0.9) == 7.0
    # two samples at q = 0.5 weigh each order statistic by one half
    assert harrell_davis([2.0, 0.0], 0.5) == pytest.approx(1.0)
    # on 0..n-1 the estimate is n * E[Beta] - 1/2 = n * q - 1/2
    assert harrell_davis(list(range(24)), 0.75) == pytest.approx(24 * 0.75 - 0.5, abs=0.01)


def test_harrell_davis_does_not_jump_when_middle_samples_swap():
    low = [1.0] * 8 + [2.0, 3.0] + [5.0] * 8     # 2.0 and 3.0 straddle the median
    high = [1.0] * 8 + [2.5, 3.0] + [5.0] * 8
    assert statistics.median(high) - statistics.median(low) == pytest.approx(0.25)
    assert 0 < harrell_davis(high, 0.5) - harrell_davis(low, 0.5) < 0.25


@pytest.mark.parametrize("n, percentile", [
    (22, 100.0 * 12 / 22),  # first count with a tail above the median
    (24, 100.0 * 14 / 24),
    (40, 75.0),
    (100, 90.0),
])
def test_tail_selects_highest_percentile_with_ten_beyond(n, percentile):
    samples = list(range(n))[::-1]
    got, pct, count = tail(samples)
    assert count == n
    assert pct == pytest.approx(percentile)
    assert got == pytest.approx(harrell_davis(samples, percentile / 100.0))
    # near the order statistic with ten samples above it
    assert abs(got - (n - 11)) < 1.0
    assert got > harrell_davis(samples, 0.5)


@pytest.mark.parametrize("n", [1, 5, 18, 21])
def test_tail_falls_back_to_the_median_below_twenty_two_samples(n):
    samples = list(range(n))[::-1]
    assert tail(samples) == (harrell_davis(samples, 0.5), 50.0, n)


def test_relative_iqr_is_quartile_distance_over_median():
    assert relative_iqr([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx((4.5 - 1.5) / 3.0)


def _oracle_gamma(p, r, c):
    series = 1j * p.omega * p.l2 + 1.0 / (1j * p.omega * c) + r
    z = 1j * p.omega * p.l1 * series / (1j * p.omega * p.l1 + series)
    return (z - p.z0) / (z + p.z0)


def _oracle_rate(ch, v, gamma, sc):
    g = (ch.h_d + ch.h_2 @ np.diag(gamma) @ ch.h_1) @ v
    h2g = ch.h_2 @ np.diag(gamma)
    noise = sc.sigma2_w * sc.f_s * h2g @ h2g.conj().T + sc.sigma2_w * sc.f_r * np.eye(sc.m_r)
    rate = 0.0
    for k in range(v.shape[1]):
        others = [j for j in range(v.shape[1]) if j != k]
        interf = noise + g[:, others] @ g[:, others].conj().T
        sinr = (g[:, k].conj() @ np.linalg.solve(interf, g[:, k])).real
        rate += np.log2(1.0 + sinr)
    return rate


def test_realized_rate_on_hand_built_two_cell_design():
    sc = channel.ScenarioConfig(m_t=2, m_r=2, d=2, n=2, n_act=1, p_ris_w=0.1).with_rho_db(-10.0)
    rng = np.random.default_rng(3)
    ch = channel.sample_channels(sc, rng)
    v = np.sqrt(sc.p_t_w / 2) * np.eye(2, dtype=complex)
    cells = (circuit.CellState(r=-5.0, c=2e-12), circuit.CellState(r=1.5, c=0.7e-12))
    design = reflection.RISDesign(
        phi=np.zeros(2), alpha_bar=np.zeros(2), active_mask=np.array([True, False]),
        gamma=np.array([9.0 + 0j, -9.0 + 0j]),   # a wrong model value the scorer must ignore
        cells=cells, ris_power_w=0.0,
    )
    run_ = workloads.SchemeRun(block=0, trial=0, scheme="AO", sweep_value=-10.0,
                               scenario=sc, ch=ch, v=v, design=design)
    gamma = np.array([_oracle_gamma(sc.circuit, c.r, c.c) for c in cells])
    assert abs(gamma[0]) > 1.0 > abs(gamma[1])
    expected = _oracle_rate(ch, v, gamma, sc)
    assert workloads.realized_rate(run_) == pytest.approx(expected, rel=1e-10)
    realized, gap = workloads.score([run_, workloads.SchemeRun(0, 1, "AO", -10.0, error="X")])
    assert realized[1] == 0.0 and gap[1] is None
    assert gap[0] == pytest.approx(-expected)


def test_benchmark_json_matches_the_code():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == layers.metric_names()
    assert all(m["bound"] <= 0.25 for m in spec["end_to_end"])
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
