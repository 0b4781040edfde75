"""Self-test of the benchmark's output checks and metric names (fast)."""

import json
import os

import checks
import refs
import run
import spans

HERE = os.path.dirname(os.path.abspath(__file__))


def _table():
    with open(os.path.join(HERE, "risk_reference.json")) as fh:
        return json.load(fh)


def _bounds_csv(cell):
    rows = [",".join(checks.BOUNDS_HEADER)]
    rows += ["lemma1,0.5,%s,0.01,1.5,true" % cell]
    rows += ["thm%d,0.3,0.2,0.1,2.0,true" % i for i in range(15)]
    return "\n".join(rows) + "\n"


def test_numpy_repr_bounds_cell_is_a_failure():
    spec = {"density": "normal", "kernel": "epanechnikov", "n": 100}
    assert checks.check_bounds(spec, _bounds_csv("0.015")) == []
    found = checks.check_bounds(spec, _bounds_csv("np.float64(0.0148)"))
    assert [f[:3] for f in found] == [
        ("bounds-unparsable-cell", "normal/epanechnikov", "n=100 lemma1.bound")]
    # the seed defect is pinned to the tables where it shows, not to its kind
    assert checks.is_known(found[0])
    other = checks.check_bounds(dict(spec, density="uniform"),
                                _bounds_csv("np.float64(0.0148)"))
    assert len(other) == 1 and not checks.is_known(other[0])


def test_risk_value_outside_its_error_bar_is_a_failure():
    table = _table()
    idx = 25
    h = table["h_lattice"][idx]
    spec = {"density": "uniform", "kernel": "uniform", "n": 100, "h_index": [idx]}
    ref, _ = refs.mise(table["cells"]["uniform/uniform"][idx], "uniform", h, 100)
    good = "h,exact_mise,quad_error\n%r,%r,0.0\n" % (h, ref)
    assert checks.check_risk(spec, good, table) == ([], 1, 1)
    bad = "h,exact_mise,quad_error\n%r,%r,0.0019\n" % (h, 0.00468)
    found, written, trusted = checks.check_risk(spec, bad, table)
    assert [f[:3] for f in found] == [("risk-outside-error-bar", "uniform/uniform", "n=100 h#25")]
    assert (written, trusted) == (1, 0)
    # a new failure in a cell with known defects still marks the run incorrect
    assert not checks.is_known(found[0])


def test_benchmark_json_names_match_the_metrics_reported():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    fake = {"latencies": [0.1, 0.2], "speed": 1.0, "peak_rss_mb": 1.0, "failed": 0,
            "risk_trusted": 0, "risk_values": 0}
    reported = run._end_to_end(fake, [1.0])
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == \
        {k: v["unit"] for k, v in reported.items()}
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == list(spans.PER_LAYER)
    assert [w["name"] for w in bench["workloads"]] == list(run.jobs.WORKLOADS)
