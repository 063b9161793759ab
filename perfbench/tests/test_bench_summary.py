import statistics

import pytest

import layers
import run


def test_quartiles_match_statistics_quantiles():
    assert run.quartiles([5.0, 1.0, 4.0, 2.0, 3.0]) == {"q1": 1.5, "median": 3.0, "q3": 4.5, "n": 5}
    values = [0.3, 9.0, 1.2, 4.4, 2.0, 7.5]
    q = run.quartiles(values)
    assert q["median"] == statistics.median(values)
    assert [q["q1"], q["median"], q["q3"]] == statistics.quantiles(values, n=4)
    assert run.quartiles([2.5]) == {"q1": 2.5, "median": 2.5, "q3": 2.5, "n": 1}


def _span(name, parent, start, end, **info):
    return layers.Span(name=name, job="j", parent=parent, start=start, end=end, info=info)


def test_layer_metrics_use_self_time_and_counts():
    spans = [
        _span("exact.partition_function", None, 0.0, 10.0),
        _span("saddle.solve_saddle", 0, 0.0, 1.0, residual=-3e-15),
        _span("exact.egf_coefficients", 0, 1.0, 9.0),
        _span("exact._log_linear_dp", 2, 2.0, 8.0, alpha=10, N=100, cells=1000, narrow=True),
        _span("sampler.sample_lengths", None, 10.0, 20.0, model=(100, 10, 1.0), draws=4, cycles=40),
        _span("sampler.SamplerState.for_model", 4, 10.0, 12.0),
        _span("limits.check_longest_diverging", None, 20.0, 20.5),
    ]
    assert layers.self_times(spans)[:4] == [1.0, 1.0, 2.0, 6.0]
    m = layers.layer_metrics(spans, queries=2, regime_of=lambda model: "diverging")
    assert m["saddle.calls"] == 1 and m["saddle.self_s"] == 1.0
    assert m["saddle.residual_max"] == pytest.approx(3e-15)
    assert m["exact.table_builds"] == 1 and m["exact.builds_per_query"] == 0.5
    assert m["exact.dp_self_s"] == 6.0 and m["exact.ns_per_cell.narrow"] == pytest.approx(6e6)
    assert m["exact.ns_per_cell.wide"] == 0.0
    assert m["sampler.state_s"] == 2.0
    assert m["sampler.cycles_per_draw.diverging"] == 10.0
    assert m["sampler.ns_per_cycle.diverging"] == pytest.approx(8.0 / 40 * 1e9)
    assert m["sampler.cycles_drawn.critical"] == 0
    assert m["limits.self_s.diverging"] == 0.5


def test_import_times_parse_importtime_lines():
    stderr = "\n".join(
        [
            "import time: self [us] | cumulative | imported package",
            "import time:       500 |        700 |   scipy.special",
            "import time:       200 |        200 |     scipy.stats._stats",
            "import time:       100 |     900000 | cyclecap",
        ]
    )
    assert run._import_times(stderr) == pytest.approx({"cyclecap": 0.9, "scipy": 0.0007})
